package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pciesim/internal/sim"
)

// small returns the named workload shrunk so a test rep takes
// milliseconds: 64 KiB dd, 32 KiB per fanout disk, 200 frames.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case strings.HasPrefix(name, "fanout"):
		w.size = 32 << 10
	case strings.HasPrefix(name, "dd"):
		w.size = 64 << 10
	default:
		w.size = 200
	}
	return w
}

func TestSmallRunsAreDeterministic(t *testing.T) {
	w := small(t, "dd-write-fc-lossy")
	a, err := runRep(w, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRep(w, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.fingerprint != b.fingerprint || a.counts["fired"] != b.counts["fired"] {
		t.Errorf("two reps differ: %s/%d vs %s/%d", a.fingerprint, a.counts["fired"], b.fingerprint, b.counts["fired"])
	}

	serial, err := runRep(small(t, "fanout18"), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runRep(small(t, "fanout18-par2"), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if serial.fingerprint != par.fingerprint {
		t.Errorf("fanout18-par2 fingerprint %s differs from fanout18's %s", par.fingerprint, serial.fingerprint)
	}
	if par.domainShare >= 1 || serial.domainShare != 1 {
		t.Errorf("domain shares: serial %v, par2 %v; par2 should split the events", serial.domainShare, par.domainShare)
	}
}

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, wl := range spec.Workloads {
		declared = append(declared, wl.Name)
	}
	if got := strings.Join(workloadNames(), " "); got != strings.Join(declared, " ") {
		t.Errorf("workloads %q, BENCHMARK.json declares %q", got, declared)
	}
	var expect map[string]string
	if err := json.Unmarshal(expectJSON, &expect); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		if len(expect[name]) != 64 {
			t.Errorf("expect.json has no fingerprint for %s", name)
		}
	}
	if expect["fanout18"] != expect["fanout18-par2"] {
		t.Error("expect.json: fanout18-par2 must carry fanout18's fingerprint")
	}

	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, BENCHMARK.json declares %d", len(endToEnd), len(spec.EndToEnd))
	}
	for i, d := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != d.name || s.Unit != d.unit || s.Better != d.better || s.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v, BENCHMARK.json %+v", i, d, s)
		}
	}
	defs := perLayer()
	if len(spec.PerLayer) != len(defs) {
		t.Fatalf("%d per-layer metrics, BENCHMARK.json declares %d", len(defs), len(spec.PerLayer))
	}
	for i, d := range defs {
		s := spec.PerLayer[i]
		if s.Name != d.name || s.Unit != d.unit || s.Better != d.better {
			t.Errorf("per-layer %d: %+v, BENCHMARK.json %+v", i, d, s)
		}
	}

	// What a run emits is exactly what is declared. peak_rss_mb comes
	// from the parent process, around the child.
	saved := append([]microRig(nil), micros...)
	t.Cleanup(func() { copy(micros, saved) })
	for i := range micros {
		micros[i].ops = 2048
	}
	w := small(t, "dd-read")
	for _, traced := range []bool{false, true} {
		o := measure(w, 1, 0, traced, "")
		if o.Failed > 0 {
			t.Fatalf("traced=%v: %v", traced, o.Errors)
		}
		want := map[string]string{}
		if traced {
			for _, d := range defs {
				want[d.name] = d.unit
			}
		} else {
			for _, d := range endToEnd {
				if d.name != "peak_rss_mb" {
					want[d.name] = d.unit
				}
			}
		}
		got := map[string]string{}
		for _, m := range o.Metrics {
			got[m.Name] = m.Unit
		}
		if !equalMaps(got, want) {
			t.Errorf("traced=%v: emitted %v\nwant %v", traced, keys(got), keys(want))
		}
	}
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestParseProfileRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	p := eng.Profile()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 50 {
			eng.Schedule("dev two.tick", 0, tick) // same-tick, with a space
			eng.Schedule("uplink.up.tx", 3, func() {})
		}
	}
	eng.Schedule("dev two.tick", 1, tick)
	eng.Run()

	var buf bytes.Buffer
	if err := p.WriteTable(&buf, 0, true); err != nil {
		t.Fatal(err)
	}
	rows, err := parseProfile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	var total uint64
	for _, r := range rows {
		if r.count != p.Count(r.name) {
			t.Errorf("%q: parsed %d, profiler counted %d", r.name, r.count, p.Count(r.name))
		}
		total += r.count
	}
	if len(rows) != p.Events() || total != eng.Fired() {
		t.Errorf("parsed %d names and %d events, want %d and %d", len(rows), total, p.Events(), eng.Fired())
	}

	// A table whose rows disagree with its header is refused.
	header := fmt.Sprintf("— %d events fired", total)
	bad := strings.Replace(buf.String(), header, fmt.Sprintf("— %d events fired", total+1), 1)
	if bad == buf.String() {
		t.Fatalf("header %q not found in\n%s", header, buf.String())
	}
	if _, err := parseProfile(strings.NewReader(bad)); err == nil {
		t.Error("a row count that disagrees with the header was accepted")
	}
}

func TestLayerEventsSumToSimEvents(t *testing.T) {
	for _, name := range workloadNames() {
		r, err := runRep(small(t, name), 1, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := r.prof.WriteTable(&buf, 0, true); err != nil {
			t.Fatal(err)
		}
		rows, err := parseProfile(&buf)
		if err != nil {
			t.Fatal(err)
		}
		per := byLayer(rows, r.layers)
		var sum uint64
		for _, l := range layers {
			sum += per[l].events
		}
		if sum != r.counts["fired"] {
			t.Errorf("%s: layer events sum to %d, engine fired %d", name, sum, r.counts["fired"])
		}
		if per["other"].events != 0 {
			t.Errorf("%s: %d events in no known layer", name, per["other"].events)
		}
		if per["link"].events == 0 || per["kernel"].events == 0 {
			t.Errorf("%s: link %d, kernel %d events; the inventory mapping missed them",
				name, per["link"].events, per["kernel"].events)
		}
	}
}

func TestLayerOfPrefersLongestComponent(t *testing.T) {
	m := layerMap{"switch0": "router", "switch0.link": "link", "membus": "xbar"}
	for name, want := range map[string]string{
		"switch0.link.up.tx":             "link",
		"switch0.downport1.respq.send":   "router",
		"pcie.switch0.link.down.replays": "link",
		"membus.master[dram].reqq.send":  "xbar",
		"switch0":                        "router",
		"switch01.upstream.reqq.send":    "other",
		"unknown":                        "other",
	} {
		if got := m.layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", name, got, want)
		}
	}
}

func TestCompareFlagsRowsBeyondTheirBound(t *testing.T) {
	bound := map[string]float64{}
	for _, d := range endToEnd {
		bound[d.name] = d.bound
	}
	line := func(vals map[string]float64) string {
		ms := map[string]map[string]any{}
		for k, v := range vals {
			ms[k] = map[string]any{"value": v, "unit": "x"}
		}
		b, _ := json.Marshal(map[string]any{"correct": true, "attempted": 1, "failed": 0, "metrics": ms})
		return string(b)
	}
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", line(map[string]float64{
		"run_s": 1, "simsec_per_s": 1, "alloc_mb": 100, "allocs_k": 100, "sim.events": 10,
	}))
	b := write("b.json", line(map[string]float64{
		"run_s":        1 + bound["run_s"]*0.9,          // worse, within its bound
		"simsec_per_s": 1 - bound["simsec_per_s"]*2,     // worse beyond: higher is better
		"alloc_mb":     100 * (1 + bound["alloc_mb"]*2), // worse beyond
		"allocs_k":     50,                              // better
		"sim.events":   20,                              // per-layer: never gated
	}))
	var out bytes.Buffer
	n, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("%d regressions, want 2 (simsec_per_s, alloc_mb):\n%s", n, out.String())
	}
	for _, want := range []string{"simsec_per_s", "alloc_mb", "improved", "sim.events"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	// The largest relative change sorts first.
	lines := strings.Split(out.String(), "\n")
	if !strings.HasPrefix(lines[1], "sim.events") {
		t.Errorf("first row %q, want sim.events (+100%%)", lines[1])
	}

	// Stats dumps diff key by key; only changed keys are listed.
	d1 := write("d1.json", `{"tick": 5, "counters": {"x.a": 1, "x.b": 2}, "histograms": {"h": {"count": 3}}}`)
	d2 := write("d2.json", `{"tick": 5, "counters": {"x.a": 1, "x.b": 3}, "histograms": {"h": {"count": 3}}}`)
	out.Reset()
	if n, err := compareFiles(&out, d1, d2); err != nil || n != 0 {
		t.Fatalf("stats dumps: %d regressions, %v", n, err)
	}
	if !strings.Contains(out.String(), "counters/x.b") || strings.Contains(out.String(), "counters/x.a") ||
		!strings.Contains(out.String(), "1 keys changed, 3 unchanged") {
		t.Errorf("stats dump diff:\n%s", out.String())
	}
}
