// Command bench measures the host cost of pciesim on five fixed
// simulated workloads and checks that the simulation still produces
// the committed model outputs.
//
// Usage:
//
//	bench [-workload name] [-seed N] [-seconds S] [-trace 0|1] [-out file]
//	bench -write-expect expect.json
//	bench compare A.json B.json
//
// Each workload runs in its own child process, one at a time: a
// discarded warm-up rep, reps for -seconds, and with -trace 1 a
// profiled rep plus isolated per-layer rigs. -trace 0 reports the
// end-to-end metrics, -trace 1 the per-layer ones; without -trace both
// run. The last line of output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

//go:embed expect.json
var expectJSON []byte

// resultFile is what -out writes: one full set of results with the
// host it was measured on.
type resultFile struct {
	Host      string          `json:"host,omitempty"`
	NumCPU    int             `json:"nproc"`
	GoVersion string          `json:"go"`
	Seed      uint64          `json:"seed"`
	Seconds   int             `json:"seconds"`
	Workloads []workloadEntry `json:"workloads"`
}

// workloadEntry is one workload's outcomes, merged across its children.
type workloadEntry struct {
	Name    string `json:"name"`
	Correct bool   `json:"correct"`
	outcome
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
			os.Exit(2)
		}
		regressions, err := compareFiles(os.Stdout, os.Args[2], os.Args[3])
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}

	name := flag.String("workload", "", "run one workload (default: all, in order)")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 5, "host seconds of measured reps per workload")
	traceMode := flag.Int("trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only (profiled rep and rigs); default both")
	out := flag.String("out", "", "also write the results to this JSON file")
	writeExpect := flag.String("write-expect", "", "regenerate the seed-1 model fingerprints into this file and exit (model-changing changes only)")
	child := flag.Bool("child", false, "measure in this process (used by the parent for each workload)")
	flag.Parse()

	if *writeExpect != "" {
		if err := regenerateExpect(*writeExpect); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	var selected []workload
	if *name == "" {
		selected = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	if *traceMode < -1 || *traceMode > 1 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1 and -seconds not negative")
		os.Exit(2)
	}
	var expect map[string]string
	if err := json.Unmarshal(expectJSON, &expect); err != nil {
		fmt.Fprintln(os.Stderr, "bench: expect.json:", err)
		os.Exit(1)
	}

	budget := time.Duration(*seconds) * time.Second
	if *child {
		w := selected[0]
		o := measure(w, *seed, budget, *traceMode == 1, expectedFingerprint(expect, w, *seed))
		if err := json.NewEncoder(os.Stdout).Encode(o); err != nil {
			os.Exit(1)
		}
		return
	}

	modes := []int{0, 1}
	if *traceMode >= 0 {
		modes = []int{*traceMode}
	}
	rf := resultFile{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Seed: *seed, Seconds: *seconds}
	for _, w := range selected {
		e := workloadEntry{Name: w.name}
		for _, mode := range modes {
			o := runChild(w.name, *seed, *seconds, mode)
			e.Attempted += o.Attempted
			e.Failed += o.Failed
			e.Errors = append(e.Errors, o.Errors...)
			e.Metrics = append(e.Metrics, o.Metrics...)
			if e.Fingerprint == "" {
				e.Fingerprint = o.Fingerprint
			}
		}
		e.Correct = e.Failed == 0
		printEntry(w, e)
		rf.Workloads = append(rf.Workloads, e)
	}
	if fanout, par := entry(rf, "fanout18"), entry(rf, "fanout18-par2"); fanout != nil && par != nil &&
		fanout.Fingerprint != par.Fingerprint {
		par.Correct = false
		par.Failed++
		fmt.Printf("fanout18-par2 fingerprint %.12s differs from fanout18's %.12s\n", par.Fingerprint, fanout.Fingerprint)
	}

	if *out != "" {
		rf.Host, _ = os.Hostname()
		data, err := json.MarshalIndent(rf, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: -out:", err)
			os.Exit(1)
		}
	}
	if !printSummary(rf) {
		os.Exit(1)
	}
}

// runChild measures one workload in a fresh process of this binary and
// adds the child's peak RSS to an untraced result.
func runChild(name string, seed uint64, seconds, mode int) outcome {
	exe, err := os.Executable()
	if err != nil {
		return outcome{Attempted: 1, Failed: 1, Errors: []string{err.Error()}}
	}
	cmd := exec.Command(exe, "-child", "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(mode))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var o outcome
	if err == nil {
		err = json.Unmarshal(lastLine(stdout), &o)
	}
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("child %s", ee.ProcessState)
		}
		return outcome{Attempted: 1, Failed: 1, Errors: []string{fmt.Sprintf("%s: %v", name, err)}}
	}
	if mode == 0 {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			// Linux reports ru_maxrss in KiB.
			o.Metrics = append(o.Metrics, single("peak_rss_mb", "MB", float64(ru.Maxrss)*1024/1e6))
		}
	}
	return o
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

func entry(rf resultFile, name string) *workloadEntry {
	for i := range rf.Workloads {
		if rf.Workloads[i].Name == name {
			return &rf.Workloads[i]
		}
	}
	return nil
}

func printEntry(w workload, e workloadEntry) {
	bw := bufio.NewWriter(os.Stdout)
	defer bw.Flush()
	fmt.Fprintf(bw, "== %s: %s\n", w.name, w.why)
	fmt.Fprintf(bw, "   fingerprint %.16s  reps attempted %d  failed %d\n", e.Fingerprint, e.Attempted, e.Failed)
	for _, msg := range e.Errors {
		fmt.Fprintf(bw, "   FAIL %s\n", msg)
	}
	for _, m := range e.Metrics {
		if m.N > 1 {
			fmt.Fprintf(bw, "   %-28s %14.6g %-8s n=%d min=%.6g p25=%.6g median=%.6g p75=%.6g\n",
				m.Name, m.Value, m.Unit, m.N, m.Min, m.P25, m.Median, m.P75)
		} else {
			fmt.Fprintf(bw, "   %-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
}

// printSummary prints the one-line JSON result last and reports whether
// every workload was correct. With one workload the metric names are
// bare; with several they are prefixed "<workload>/".
func printSummary(rf resultFile) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, e := range rf.Workloads {
		summary.Correct = summary.Correct && e.Correct
		summary.Attempted += e.Attempted
		summary.Failed += e.Failed
		for _, m := range e.Metrics {
			key := m.Name
			if len(rf.Workloads) > 1 {
				key = e.Name + "/" + m.Name
			}
			summary.Metrics[key] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Println(string(line))
	return summary.Correct
}

// regenerateExpect runs one rep of every workload at seed 1 and writes
// the fingerprints. Only a change meant to alter the model should run
// it; fanout18-par2 must reproduce fanout18 exactly.
func regenerateExpect(path string) error {
	fps := map[string]string{}
	for _, w := range workloads {
		r, err := runRep(w, 1, false)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fps[w.name] = r.fingerprint
		fmt.Fprintf(os.Stderr, "%-20s %s\n", w.name, r.fingerprint)
	}
	if fps["fanout18"] != fps["fanout18-par2"] {
		return fmt.Errorf("fanout18-par2 fingerprint differs from fanout18's: the parallel engine changed the model")
	}
	data, err := json.MarshalIndent(fps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
