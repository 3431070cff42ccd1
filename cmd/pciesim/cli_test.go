package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/cli.txt")

// runAsCommand is the environment variable that turns a re-executed test
// binary into the pciesim command itself.
const runAsCommand = "PCIESIM_CLI_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsCommand) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cliCases are the pinned invocations. They run in order in one scratch
// directory, so a capture case leaves its trace file for the replay
// cases after it.
var cliCases = [][]string{
	{"-block", "1"},
	{"-block", "1", "-stats"},
	{"-block", "1", "-credits", "8"},
	{"-block", "1", "-errrate", "0.01", "-dllprate", "0.01", "-droprate", "0.005", "-faultseed", "7"},
	{"-block", "1", "-downat", "1000", "-downdur", "200", "-retrain", "20"},
	{"-block", "1", "-downat", "1000", "-downdur", "0", "-cto", "100"},
	{"-hotplug", "at=1500,reinsert=500"},
	{"-block", "1", "-errrate", "0.02", "-degrade"},
	{"-block", "1", "-dpc"},
	{"-block", "1", "-uplink", "8", "-disklink", "8", "-replaybuf", "2", "-portbuf", "8", "-switchlat", "50", "-rclat", "50", "-msi", "-posted", "-gen", "3"},
	{"-topo", "fanout8", "-block", "1"},
	{"-topo", "switch:x4(disk*4),nic", "-block", "1"},
	{"-topo", "p2p", "-p2p"},
	{"-topo", "p2p", "-p2p", "-reflect"},
	{"-topo", "validation", "-dump-topo"},
	{"-workload", "bursty-rx", "-wl-ops", "100"},
	{"-workload", "poisson-read", "-wl-ops", "50", "-wl-capture", "wl.trace"},
	{"-trace-in", "wl.trace"},
	{"-campaign", "seeds=2", "-block", "1"},
	{"-campaign", "kind=hotplug,seeds=2", "-block", "1"},
	{"-gen", "7"},
	{"-campaign", "kind=x"},
	{"-workload", "bursty-rx", "-trace-in", "wl.trace"},
	{"-credits", "bogus"},
	{"-hotplug", "bogus"},
	{"-errrate", "2"},
	// Platform flags take effect in every single-run mode.
	{"-topo", "fanout8", "-block", "1", "-switchlat", "50", "-replaybuf", "1"},
	{"-topo", "validation", "-block", "1", "-errrate", "0.01"},
	{"-p2p"},
	// A flag the run cannot honour exits 2 naming it.
	{"-topo", "fanout8", "-errrate", "0.05"},
	{"-topo", "fanout8", "-uplink", "8"},
	{"-campaign", "seeds=2", "-switchlat", "50"},
	{"-jobs", "2"},
	{"-trace-in", "wl.trace", "-wl-ops", "5"},
	{"-topo", "p2p", "-p2p", "-block", "2"},
	{"-topo", "p2p", "-p2p", "-dump-topo"},
	{"-block", "-1"},
	{"-block", "0"},
	{"-switchlat", "-5"},
	{"-workload", "bursty-rx", "-wl-gap", "-3"},
	{"-rclat", "99999999999999999"},
	// Fault traces of the completion-timeout and DPC answer paths.
	{"-block", "1", "-downat", "1000", "-downdur", "0", "-cto", "100", "-trace", "fault"},
	{"-hotplug", "at=1500,reinsert=500", "-trace", "fault"},
}

// TestCLIGolden pins stdout, stderr and the exit status of every
// cliCases invocation in testdata/cli.txt. Regenerate with
// `go test ./cmd/pciesim -run TestCLIGolden -update` only after an
// intentional change to what the command prints.
func TestCLIGolden(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var out bytes.Buffer
	for _, args := range cliCases {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), runAsCommand+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		code := 0
		var exitErr *exec.ExitError
		if errors.As(err, &exitErr) && !timedOut {
			code = exitErr.ExitCode()
		} else if err != nil {
			t.Fatalf("pciesim %s: %v", strings.Join(args, " "), err)
		}
		fmt.Fprintf(&out, "=== pciesim %s\n--- exit %d\n--- stdout\n%s--- stderr\n%s",
			strings.Join(args, " "), code, stdout.Bytes(), stderr.Bytes())
	}

	path := filepath.Join("testdata", "cli.txt")
	got := out.Bytes()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("command output differs from %s (-update after intentional changes);\n%s",
			path, firstDiff(got, want))
	}
}

// firstDiff reports the first differing line of two outputs, headed by
// the invocation it belongs to.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	head := ""
	for i := 0; i < len(g) && i < len(w); i++ {
		if strings.HasPrefix(w[i], "=== ") {
			head = w[i]
		}
		if g[i] != w[i] {
			return fmt.Sprintf("%s\nfirst diff at line %d:\n got: %s\nwant: %s", head, i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("outputs diverge in length: %d vs %d lines", len(g), len(w))
}
