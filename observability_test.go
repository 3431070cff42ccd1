package pciesim

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
)

// faultObsConfig returns a platform configuration exercising the whole
// error path under observation: stochastic corruption on the disk link
// plus a surprise-dead window mid-transfer, with every containment
// timeout armed so the run terminates.
func faultObsConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DD.StartupOverhead /= 64
	cfg.CompletionTimeout = 100 * Microsecond
	cfg.DiskCmdTimeout = 2 * Millisecond
	cfg.DiskDMATimeout = 500 * Microsecond
	r := FaultRates{TLPCorrupt: 1e-2, DLLPCorrupt: 1e-2, Drop: 5e-3}
	plan := &FaultPlan{Seed: 7, Up: FaultProfile{Rates: r}, Down: FaultProfile{Rates: r}}
	cfg.Faults = map[string]*FaultPlan{"disklink": plan}

	// Kill the link mid-stream (boot is deterministic, so probing one
	// throwaway platform places the window identically for every run).
	probe := buildValidation(t, cfg)
	if _, err := probe.Boot(); err != nil {
		t.Fatal(err)
	}
	plan.Windows = []FaultWindow{{
		At: probe.Eng.Now() + cfg.DD.StartupOverhead + 500*Microsecond,
	}}
	return cfg
}

// runFaulted runs one dd block over the faulted configuration and
// drains stragglers, leaving the engine stopped for dumping.
func runFaulted(t *testing.T, cfg Config) *System {
	t.Helper()
	s := buildValidation(t, cfg)
	s.Eng.SampleEvery(100 * Microsecond)
	if _, err := s.RunDD(256 << 10); err != nil {
		t.Fatal(err)
	}
	s.Eng.Run()
	return s
}

// TestStatsDumpDeterministic runs the same seeded fault scenario twice
// and requires byte-identical JSON dumps — the reproducibility contract
// the observability layer must not break.
func TestStatsDumpDeterministic(t *testing.T) {
	dump := func() []byte {
		s := runFaulted(t, faultObsConfig(t))
		var b bytes.Buffer
		if err := s.Eng.Stats().WriteJSON(&b, uint64(s.Eng.Now())); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := dump(), dump()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed stats dumps differ:\nlen %d vs %d", len(a), len(b))
	}

	// The dump must be valid JSON carrying counters and histograms from
	// every layer of the platform.
	var parsed struct {
		Counters   map[string]uint64          `json:"counters"`
		Histograms map[string]json.RawMessage `json:"histograms"`
		Series     *struct {
			Ticks []uint64 `json:"ticks"`
		} `json:"series"`
	}
	if err := json.Unmarshal(a, &parsed); err != nil {
		t.Fatalf("stats dump is not valid JSON: %v", err)
	}
	for _, c := range []string{
		"pcie.disklink.up.accepted", "aer.uncorrectable", "kernel.aer.records",
		"dram.reads", "disk.chunks", "cpu0.reads",
	} {
		if _, ok := parsed.Counters[c]; !ok {
			t.Errorf("dump missing counter %q", c)
		}
	}
	for _, h := range []string{
		"pcie.disklink.up.ack_latency",  // link
		"membus.master[dram].reqq.wait", // xbar
		"iobridge.reqq.wait",            // bridge
		"dram.service_latency",          // memctrl
		"disk.chunk_latency",            // device DMA
		"iocache.fill_latency",          // cache
		"rc.completion_latency",         // RC completion tracking
		"dd.request_latency",            // workload
	} {
		if _, ok := parsed.Histograms[h]; !ok {
			t.Errorf("dump missing histogram %q", h)
		}
	}
	if parsed.Series == nil || len(parsed.Series.Ticks) == 0 {
		t.Error("dump missing sampler series despite SampleEvery")
	}
}

// TestFaultRunRecordsErrorCounters is the regression guard for the
// error-path instrumentation: a faulted run must surface nonzero replay
// and uncorrectable-AER counts through the registry.
func TestFaultRunRecordsErrorCounters(t *testing.T) {
	s := runFaulted(t, faultObsConfig(t))
	r := s.Eng.Stats()
	up, _ := r.CounterValue("pcie.disklink.up.replays")
	down, _ := r.CounterValue("pcie.disklink.down.replays")
	if up+down == 0 {
		t.Error("faulted run recorded no link replays")
	}
	unc, ok := r.CounterValue("aer.uncorrectable")
	if !ok || unc == 0 {
		t.Errorf("faulted run recorded no uncorrectable AER errors (ok=%v, n=%d)", ok, unc)
	}
	if recs, err := s.ScanAER(); err != nil || len(recs) == 0 {
		t.Errorf("AER scan after faulted run: recs=%d err=%v", len(recs), err)
	}
}

// TestDeadLinkRatesFinite guards the LinkStats rate accessors against
// division by zero: a link that never transmitted must report 0, not
// NaN, through the public alias.
func TestDeadLinkRatesFinite(t *testing.T) {
	var st LinkStats
	if r := st.ReplayRate(); r != 0 {
		t.Errorf("zero-traffic ReplayRate = %v, want 0", r)
	}
	if r := st.TimeoutRate(); r != 0 {
		t.Errorf("zero-traffic TimeoutRate = %v, want 0", r)
	}
}

// TestTracingDisabledCostsNoAllocations proves that an installed tracer
// with every category masked off adds zero allocations to the TLP path:
// the run's total allocation count must match the nil-tracer baseline
// exactly (the simulation is single-threaded and deterministic, so
// allocation counts are reproducible).
func TestTracingDisabledCostsNoAllocations(t *testing.T) {
	run := func(masked bool) uint64 {
		cfg := DefaultConfig()
		cfg.DD.StartupOverhead /= 64
		s := buildValidation(t, cfg)
		if masked {
			s.Eng.SetTracer(NewTracer(0))
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.RunDD(256 << 10); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	// Warm both paths once so one-time runtime costs don't skew the
	// comparison, then measure.
	run(false)
	run(true)
	base, masked := run(false), run(true)
	// Tolerate a sliver of runtime noise (goroutine stack growth is not
	// attributable to the tracer), but a per-TLP cost would show up as
	// thousands of extra allocations on this ~16k-packet run.
	const slack = 50
	if masked > base+slack {
		t.Errorf("masked tracer run allocated %d objects vs baseline %d", masked, base)
	}
}
