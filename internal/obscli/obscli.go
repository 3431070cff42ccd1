// Package obscli is the shared command-line plumbing for the
// observability layer: every tool that runs a simulation registers the
// same -stats / -stats-out / -stats-interval / -stats-stream / -trace
// / -trace-out / -prof flags, arms the engine before the run, and
// writes the dumps after.
package obscli

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"pciesim/internal/sim"
	"pciesim/internal/trace"
)

// defaultStreamInterval is the sampling period (simulated
// microseconds) -stats-stream falls back to when -stats-interval was
// not given: a stream with nothing flowing through it would be a
// surprise.
const defaultStreamInterval = 100

// Flags holds the observability options of one command invocation.
type Flags struct {
	// Stats prints a human-readable stats summary to stdout at the end
	// of the run.
	Stats bool
	// StatsOut writes the end-of-run stats dump to a file: JSON unless
	// the path ends in .csv.
	StatsOut string
	// StatsInterval enables periodic counter sampling at this period
	// (microseconds of simulated time); the series appears in both the
	// JSON and CSV dumps.
	StatsInterval int
	// StatsStream streams each sampler snapshot to a file as one NDJSON
	// line while the run is going ("-" for stdout). Implies periodic
	// sampling at the default interval when -stats-interval is unset.
	StatsStream string
	// Trace selects trace categories ("tlp,fault", "all"). As a
	// shorthand, a path ending in .json means "all categories, Chrome
	// trace to that file" — `-trace trace.json` is the common case.
	Trace string
	// TraceOut writes the trace to a file: Chrome trace_event JSON if
	// the path ends in .json (open it in Perfetto), text otherwise.
	// Empty with -trace set writes text to stdout.
	TraceOut string
	// Prof arms the engine self-profiler and prints its per-event table
	// (counts, same-tick re-schedules, wall-clock) after the run.
	Prof bool

	tracer     *trace.Tracer
	domTracers []*trace.Tracer // one per timing domain under -par
	streamFile *os.File
	streamBuf  *bufio.Writer
}

// Register installs the flags on the given FlagSet (flag.CommandLine
// for ordinary commands).
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&f.Stats, "stats", false, "print a stats summary (counters, queue depths, latency histograms) after the run")
	fs.StringVar(&f.StatsOut, "stats-out", "", "write the stats dump to this file (.csv for CSV, JSON otherwise)")
	fs.IntVar(&f.StatsInterval, "stats-interval", 0, "sample counters every N microseconds of simulated time (0 disables; series lands in the JSON and CSV dumps)")
	fs.StringVar(&f.StatsStream, "stats-stream", "", `stream sampler snapshots to this file as NDJSON while the run is going ("-" for stdout); implies -stats-interval 100 when unset`)
	fs.StringVar(&f.Trace, "trace", "", `trace categories ("tlp,dllp,dma,irq,fault,config,span" or "all"); a .json path means all categories to that Chrome trace file`)
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the trace to this file (.json for Chrome/Perfetto trace_event format, text otherwise)")
	fs.BoolVar(&f.Prof, "prof", false, "profile the engine itself: per-event counts, same-tick re-schedules, and wall-clock, printed after the run")
}

// Arm installs the tracer, sampler, stream, profiler, and span
// attribution on the engine before the run. On a parallel (multi-
// domain) engine each domain gets its own tracer and profiler — Finish
// merges them — while the periodic sampler, which reads every counter
// from the root domain's clock, is refused.
func (f *Flags) Arm(eng *sim.Engine) error {
	engines := eng.DomainEngines()
	if len(engines) == 0 {
		engines = []*sim.Engine{eng}
	}
	if f.Trace != "" {
		spec := f.Trace
		if strings.HasSuffix(spec, ".json") {
			// `-trace trace.json` shorthand.
			if f.TraceOut == "" {
				f.TraceOut = spec
			}
			spec = "all"
		}
		mask, err := trace.ParseCategories(spec)
		if err != nil {
			return err
		}
		for _, e := range engines {
			t := trace.New(mask)
			e.SetTracer(t)
			f.domTracers = append(f.domTracers, t)
			if mask&trace.CatSpan != 0 {
				// Span events need the components' span accounting on.
				e.ArmSpans()
			}
		}
		f.tracer = f.domTracers[0]
	}
	if f.StatsStream != "" && f.StatsInterval == 0 {
		f.StatsInterval = defaultStreamInterval
	}
	if f.StatsInterval > 0 {
		if len(engines) > 1 {
			return fmt.Errorf("obscli: -stats-interval and -stats-stream sample on the root domain's clock and need the serial engine; drop -par")
		}
		eng.SampleEvery(sim.Tick(f.StatsInterval) * sim.Microsecond)
	}
	if f.StatsStream != "" {
		w := io.Writer(os.Stdout)
		if f.StatsStream != "-" {
			file, err := os.Create(f.StatsStream)
			if err != nil {
				return fmt.Errorf("stats stream: %w", err)
			}
			f.streamFile = file
			f.streamBuf = bufio.NewWriter(file)
			w = f.streamBuf
		}
		eng.Stats().Sampler().StreamTo(w)
	}
	if f.Prof {
		for _, e := range engines {
			e.Profile()
		}
	}
	return nil
}

// Enabled reports whether any output will be produced by Finish.
func (f *Flags) Enabled() bool {
	return f.Stats || f.StatsOut != "" || f.tracer != nil || f.Prof || f.streamFile != nil
}

// Active reports whether any observability flag was given — callable
// before Arm, unlike Enabled.
func (f *Flags) Active() bool {
	return f.Stats || f.StatsOut != "" || f.StatsInterval > 0 || f.Trace != "" ||
		f.StatsStream != "" || f.Prof
}

// ForRun returns an independent copy of the flags with every output
// path suffixed by label (inserted before the extension), for tools
// that run many simulations in one invocation and need one dump per
// run. Arm and Finish the copy around each run. Labels are unique per
// run, so copies armed on concurrently running engines never write the
// same file; each copy still belongs to exactly one engine.
func (f Flags) ForRun(label string) *Flags {
	c := f
	c.tracer = nil
	c.domTracers = nil
	c.streamFile = nil
	c.streamBuf = nil
	c.StatsOut = suffixPath(c.StatsOut, label)
	c.TraceOut = suffixPath(c.TraceOut, label)
	if c.StatsStream != "" && c.StatsStream != "-" {
		c.StatsStream = suffixPath(c.StatsStream, label)
	}
	if strings.HasSuffix(c.Trace, ".json") {
		c.Trace = suffixPath(c.Trace, label)
	}
	return &c
}

// PerRun returns the Observe/ObserveDone hook pair of pciesim.Options
// for tools that run many simulations per invocation: every run gets its
// own ForRun copy, armed when its platform is built and finished — after
// a "--- stats: <label> ---" header when -stats prints — once it is
// done. Observe may be called concurrently under -jobs; ObserveDone is
// serialized by the runner, so printing there is safe. Both hooks are
// nil when no observability flag was given.
func (f Flags) PerRun() (observe, done func(eng *sim.Engine, label string) error) {
	if !f.Active() {
		return nil, nil
	}
	var mu sync.Mutex
	armed := make(map[*sim.Engine]*Flags)
	observe = func(eng *sim.Engine, label string) error {
		c := f.ForRun(label)
		if err := c.Arm(eng); err != nil {
			return err
		}
		mu.Lock()
		armed[eng] = c
		mu.Unlock()
		return nil
	}
	done = func(eng *sim.Engine, label string) error {
		mu.Lock()
		c := armed[eng]
		delete(armed, eng)
		mu.Unlock()
		if c.Stats {
			fmt.Printf("--- stats: %s ---\n", label)
		}
		return c.Finish(eng)
	}
	return observe, done
}

// suffixPath turns "stats.json" + "x8@512MB" into "stats-x8@512MB.json".
// Path separators in the label are flattened so a label can never
// escape into another directory.
func suffixPath(path, label string) string {
	if path == "" {
		return ""
	}
	label = strings.ReplaceAll(label, "/", "_")
	if dot := strings.LastIndex(path, "."); dot > strings.LastIndex(path, "/") {
		return path[:dot] + "-" + label + path[dot:]
	}
	return path + "-" + label
}

// Finish writes the requested dumps after the run. It must be called
// after the engine has stopped.
func (f *Flags) Finish(eng *sim.Engine) error {
	now := uint64(eng.Now())
	r := eng.Stats()
	if f.streamFile != nil {
		sampler := r.Sampler()
		if err := f.streamBuf.Flush(); err != nil {
			return fmt.Errorf("stats stream: %w", err)
		}
		if err := f.streamFile.Close(); err != nil {
			return fmt.Errorf("stats stream: %w", err)
		}
		f.streamFile, f.streamBuf = nil, nil
		if sampler != nil {
			if err := sampler.StreamErr(); err != nil {
				return fmt.Errorf("stats stream: %w", err)
			}
		}
	}
	if f.StatsOut != "" {
		if err := writeFile(f.StatsOut, func(w io.Writer) error {
			if strings.HasSuffix(f.StatsOut, ".csv") {
				return r.WriteCSV(w, now)
			}
			return r.WriteJSON(w, now)
		}); err != nil {
			return fmt.Errorf("stats dump: %w", err)
		}
	}
	if f.Stats {
		fmt.Println()
		if err := r.WriteText(os.Stdout, now); err != nil {
			return err
		}
	}
	if f.Prof {
		if prof := eng.Prof(); prof != nil {
			if doms := eng.DomainEngines(); len(doms) > 1 {
				var others []*sim.Profiler
				for _, d := range doms[1:] {
					if p := d.Prof(); p != nil {
						others = append(others, p)
					}
				}
				prof.Merge(others...)
			}
			fmt.Println()
			if err := prof.WriteTable(os.Stdout, 20, true); err != nil {
				return err
			}
		}
	}
	if f.tracer != nil {
		out := f.tracer
		if len(f.domTracers) > 1 {
			out = trace.Merge(f.domTracers...)
		}
		write := out.WriteText
		if strings.HasSuffix(f.TraceOut, ".json") {
			write = out.WriteChromeJSON
		}
		if f.TraceOut == "" {
			return write(os.Stdout)
		}
		if err := writeFile(f.TraceOut, func(w io.Writer) error { return write(w) }); err != nil {
			return fmt.Errorf("trace dump: %w", err)
		}
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
