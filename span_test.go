package pciesim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// spanObsConfig is the faulted platform used by the span tests: the
// same corruption/drop rates and dead-link window as faultObsConfig,
// i.e. the worst case for begin/end bookkeeping (flushed queues,
// abandoned replays, timed-out completions).
func spanObsConfig(t *testing.T) Config {
	t.Helper()
	return faultObsConfig(t)
}

// TestSpanTraceBalanced pins the pair-at-completion contract: no
// matter how a faulted run mangles the packet flow, every recorded
// span begin has exactly one end — aborted segments emit nothing
// rather than an orphaned begin.
func TestSpanTraceBalanced(t *testing.T) {
	cfg := spanObsConfig(t)
	s := buildValidation(t, cfg)
	tr := NewTracer(TraceSpan)
	s.Eng.SetTracer(tr)
	s.Eng.ArmSpans()
	if _, err := s.RunDD(256 << 10); err != nil {
		t.Fatal(err)
	}
	s.Eng.Run()

	begins, ends := tr.SpanBalance()
	if begins == 0 {
		t.Fatal("armed span run recorded no spans")
	}
	if begins != ends {
		t.Fatalf("unbalanced spans: %d begins, %d ends", begins, ends)
	}

	// The Chrome dump must be well-formed JSON whose span events carry
	// the async-nestable phases and pair up by count.
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	var b, e int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "b":
			b++
		case "e":
			e++
		}
	}
	if b != begins || e != ends {
		t.Errorf("JSON phases b=%d e=%d, want %d/%d", b, e, begins, ends)
	}

	// The faulted link must actually exercise the interesting segments.
	for _, seg := range []string{"txq-wait", "wire", "replay-wait"} {
		found := false
		for _, ev := range doc.TraceEvents {
			if ev.Name == seg {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("trace records no %q spans", seg)
		}
	}
}

// TestMaskedSpanEmissionAllocFree pins the guard cost of a masked
// tracer at the emission sites: Span/Begin/End on a tracer without the
// span category must not allocate. (The full-run pin — an installed
// all-masked tracer adds zero allocations across the whole TLP path,
// span guards included — is TestTracingDisabledCostsNoAllocations.)
func TestMaskedSpanEmissionAllocFree(t *testing.T) {
	tr := NewTracer(TraceAll &^ TraceSpan)
	for _, probe := range []struct {
		name string
		fn   func()
	}{
		{"Span", func() { tr.Span(10, 20, "comp", "seg", 7, "") }},
		{"Begin", func() { tr.Begin(10, "comp", "seg", 7, "") }},
		{"End", func() { tr.End(20, "comp", "seg", 7, "") }},
	} {
		if allocs := testing.AllocsPerRun(100, probe.fn); allocs != 0 {
			t.Errorf("masked %s allocates %.0f objects per call, want 0", probe.name, allocs)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("masked tracer recorded %d events", tr.Len())
	}
}

// TestUnarmedSpansDumpIdentical proves the seg.* histograms stay out
// of the stats dump unless spans are armed: a run with a masked tracer
// installed dumps byte-identically to a bare run, and an armed run
// differs only by seg.* additions.
func TestUnarmedSpansDumpIdentical(t *testing.T) {
	dump := func(arm func(*System)) []byte {
		cfg := DefaultConfig()
		cfg.DD.StartupOverhead /= 64
		s := buildValidation(t, cfg)
		arm(s)
		if _, err := s.RunDD(256 << 10); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := s.Eng.Stats().WriteJSON(&b, uint64(s.Eng.Now())); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	bare := dump(func(*System) {})
	masked := dump(func(s *System) { s.Eng.SetTracer(NewTracer(TraceAll &^ TraceSpan)) })
	if !bytes.Equal(bare, masked) {
		t.Error("masked-tracer run dumps differently from a bare run")
	}
	if bytes.Contains(bare, []byte(`"seg.`)) {
		t.Error("unarmed dump contains seg.* histograms")
	}
	armed := dump(func(s *System) { s.Eng.ArmSpans() })
	if !bytes.Contains(armed, []byte(`"seg.wire"`)) {
		t.Error("armed dump missing seg.wire histogram")
	}
}

// TestProfilerCountsDeterministic runs the same faulted scenario twice
// with the self-profiler armed and requires the count-only table —
// the reproducible half of the profile — to be byte-identical.
func TestProfilerCountsDeterministic(t *testing.T) {
	table := func() ([]byte, uint64) {
		s := buildValidation(t, spanObsConfig(t))
		prof := s.Eng.Profile()
		if _, err := s.RunDD(256 << 10); err != nil {
			t.Fatal(err)
		}
		s.Eng.Run()
		var b bytes.Buffer
		if err := prof.WriteTable(&b, 0, false); err != nil {
			t.Fatal(err)
		}
		return b.Bytes(), s.Eng.Fired()
	}
	a, firedA := table()
	b, firedB := table()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed profiles differ:\n%s\nvs\n%s", a, b)
	}
	if firedA != firedB {
		t.Fatalf("fired counts differ: %d vs %d", firedA, firedB)
	}
	if !bytes.Contains(a, []byte("engine profile")) || !bytes.Contains(a, []byte("by component:")) {
		t.Errorf("profile table missing sections:\n%s", a)
	}
	if bytes.Contains(a, []byte("wall")) {
		t.Errorf("count-only table leaks wall-clock columns:\n%s", a)
	}
}

// TestFigLatShape is the acceptance assertion of the attribution
// tentpole: starving the completion credit pool must measurably shift
// attribution from wire time into fc-stall, and must cost throughput.
func TestFigLatShape(t *testing.T) {
	check := func(jobs int) LatFigure {
		fig, err := RunFigLat(Options{Scale: 64, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}
	fig := check(1)

	if fig.Baseline.Total == 0 || fig.Starved.Total == 0 {
		t.Fatalf("empty attribution: baseline=%d starved=%d", fig.Baseline.Total, fig.Starved.Total)
	}
	baseStall, starvedStall := fig.Baseline.Share("fc-stall"), fig.Starved.Share("fc-stall")
	if starvedStall < baseStall+0.01 {
		t.Errorf("starving credits must shift ≥1%% of attribution into fc-stall: base=%.4f starved=%.4f",
			baseStall, starvedStall)
	}
	if w := fig.Starved.Share("wire"); w >= fig.Baseline.Share("wire") {
		t.Errorf("wire share must shrink when stalls grow: base=%.4f starved=%.4f",
			fig.Baseline.Share("wire"), w)
	}
	if fig.Starved.Gbps >= fig.Baseline.Gbps {
		t.Errorf("starved run must lose throughput: base=%.3f starved=%.3f Gbps",
			fig.Baseline.Gbps, fig.Starved.Gbps)
	}

	// Attribution is a simulation artifact, so it is reproducible at any
	// worker count.
	par := check(2)
	if par.Baseline.Total != fig.Baseline.Total || par.Starved.Total != fig.Starved.Total {
		t.Errorf("attribution differs between jobs=1 and jobs=2: %d/%d vs %d/%d",
			fig.Baseline.Total, fig.Starved.Total, par.Baseline.Total, par.Starved.Total)
	}

	txt, csv := fig.Format(), fig.CSV()
	if !strings.Contains(txt, "fc-stall") || !strings.Contains(txt, "throughput:") {
		t.Errorf("Format output:\n%s", txt)
	}
	if !strings.HasPrefix(csv, "figure,segment,baseline_us,baseline_share,starved_us,starved_share\n") ||
		!strings.Contains(csv, "figlat,fc-stall,") {
		t.Errorf("CSV output:\n%s", csv)
	}
}

// TestStatsStreamNDJSON drives the streaming sink during a run and
// checks the wire format: one JSON object per line, monotonically
// increasing ticks, every registered series present in each snapshot.
func TestStatsStreamNDJSON(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DD.StartupOverhead /= 64
	s := buildValidation(t, cfg)
	s.Eng.SampleEvery(100 * Microsecond)
	var buf bytes.Buffer
	s.Eng.Stats().Sampler().StreamTo(&buf)
	if _, err := s.RunDD(256 << 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Eng.Stats().Sampler().StreamErr(); err != nil {
		t.Fatal(err)
	}

	var lastTick uint64
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var snap struct {
			Tick   uint64            `json:"tick"`
			Values map[string]uint64 `json:"values"`
		}
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines+1, err, sc.Text())
		}
		if lines > 0 && snap.Tick <= lastTick {
			t.Fatalf("ticks not increasing: %d after %d", snap.Tick, lastTick)
		}
		lastTick = snap.Tick
		if _, ok := snap.Values["disk.chunks"]; !ok {
			t.Fatalf("snapshot missing disk.chunks series: %s", sc.Text())
		}
		lines++
	}
	if lines < 2 {
		t.Fatalf("stream emitted %d snapshots, want several", lines)
	}
}

// TestStatsCSVSeriesRows pins the satellite fix: the sampler
// time-series lands in the CSV dump, one row per (series, sample).
func TestStatsCSVSeriesRows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DD.StartupOverhead /= 64
	s := buildValidation(t, cfg)
	s.Eng.SampleEvery(100 * Microsecond)
	if _, err := s.RunDD(256 << 10); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := s.Eng.Stats().WriteCSV(&b, uint64(s.Eng.Now())); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "series,") {
			continue
		}
		rows++
		f := strings.Split(line, ",")
		if len(f) != 4 {
			t.Fatalf("malformed series row: %q", line)
		}
	}
	if rows == 0 {
		t.Fatal("CSV dump carries no series rows despite SampleEvery")
	}
	if !strings.Contains(b.String(), "series,disk.chunks,") {
		t.Error("CSV series rows missing disk.chunks")
	}
}

// TestParseTraceCategoriesUnknown pins the error UX: an unknown
// category must name itself and list every valid name.
func TestParseTraceCategoriesUnknown(t *testing.T) {
	_, err := ParseTraceCategories("tlp,bogus")
	if err == nil {
		t.Fatal("unknown category accepted")
	}
	msg := err.Error()
	for _, want := range []string{`"bogus"`, "valid names:", "span", "tlp", "all"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	names := TraceCategoryNames()
	if len(names) == 0 || names[len(names)-1] != "all" {
		t.Errorf("TraceCategoryNames() = %v, want category list ending in \"all\"", names)
	}
}

// TestEngineCountersRegistered pins the satellite: the engine's own
// internals surface in the stats registry next to the components.
func TestEngineCountersRegistered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DD.StartupOverhead /= 64
	s := buildValidation(t, cfg)
	if _, err := s.RunDD(256 << 10); err != nil {
		t.Fatal(err)
	}
	s.Eng.Run() // drain, so sim.pending must read zero
	r := s.Eng.Stats()
	fired, ok := r.CounterValue("sim.fired")
	if !ok || fired != s.Eng.Fired() {
		t.Errorf("sim.fired = %d (ok=%v), want %d", fired, ok, s.Eng.Fired())
	}
	if pending, ok := r.CounterValue("sim.pending"); !ok || pending != 0 {
		t.Errorf("sim.pending = %d (ok=%v), want 0 after drain", pending, ok)
	}
	if recycled, ok := r.CounterValue("sim.recycled"); !ok || recycled == 0 {
		t.Errorf("sim.recycled = %d (ok=%v), want nonzero", recycled, ok)
	}
}
