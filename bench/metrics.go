package main

import (
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	bound float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// every observer off. The time bounds allow for a shared 2-CPU host,
// where a neighbour's load moves even the best rep of a run by several
// percent. setup_s, a millisecond-scale median, has the widest bound:
// it is gated only so that work moved into set-up shows. Allocation
// counts repeat almost exactly.
var endToEnd = []metricDef{
	{"run_s", "s", "lower", 0.20},
	{"simsec_per_s", "simsec/s", "higher", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.02},
	{"allocs_k", "k", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// microLayers are the isolated rigs, in report order; selfLayers are
// the ones measured between testdev endpoints, whose own cost is the
// rig's cost minus the direct testdev baseline.
var (
	microLayers = []string{"sim", "testdev", "link", "router", "xbar", "cache", "memctrl"}
	selfLayers  = []string{"link", "router", "xbar", "cache", "memctrl"}
)

// perLayer lists every traced-run metric, in report order.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better})
	}
	for _, l := range layers {
		add(l+".events", "count", "lower")
		add(l+".same_tick", "count", "lower")
		add(l+".wall_share", "ratio", "lower")
		add(l+".ns_per_event", "ns", "lower")
	}
	add("sim.events", "count", "lower")
	add("sim.same_tick", "count", "lower")
	add("sim.ns_per_event", "ns", "lower")
	add("sim.events_per_tlp", "ratio", "lower")
	add("trace.overhead", "ratio", "lower")
	for _, c := range []string{"tlps_tx", "replays", "timeouts", "naks", "throttled", "fc_stalls", "updatefc"} {
		add("link."+c, "count", "lower")
	}
	add("router.refusals", "count", "lower")
	add("cache.hits", "count", "higher")
	add("cache.misses", "count", "lower")
	add("memctrl.reqs", "count", "lower")
	add("mem.pool_reuse_ratio", "ratio", "higher")
	add("sim.recycle_ratio", "ratio", "higher")
	add("par.domain_share_max", "ratio", "lower")
	add("par.speedup", "ratio", "higher")
	add("topo.build_s", "s", "lower")
	add("topo.boot_s", "s", "lower")
	add("model.sim_s", "s", "lower")
	add("model.gbps", "Gb/s", "higher")
	add("model.p99_us", "us", "lower")
	add("model.phys_err_pct", "%", "lower")
	for _, l := range microLayers {
		add("micro."+l+".ns_per_op", "ns", "lower")
		add("micro."+l+".allocs_per_op", "count", "lower")
		add("micro."+l+".events_per_op", "count", "lower")
	}
	for _, l := range selfLayers {
		add("micro."+l+".self_ns_per_op", "ns", "lower")
	}
	return defs
}

// metric is one measured value with the samples behind it: N is 1 for
// a single measurement or an exact count.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	Max    float64 `json:"max"`
}

// summarize describes samples, quartiles by linear interpolation between
// order statistics; its Value is the median.
func summarize(name, unit string, samples []float64) metric {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		x := p * float64(len(s)-1)
		lo := int(math.Floor(x))
		hi := min(lo+1, len(s)-1)
		return s[lo] + (s[hi]-s[lo])*(x-float64(lo))
	}
	return metric{Name: name, Unit: unit, Value: q(0.5), N: len(s),
		Min: q(0), P25: q(0.25), Median: q(0.5), P75: q(0.75), Max: q(1)}
}

// best is summarize with Value set to the best sample: the lowest time,
// the highest rate. Every rep does identical simulated work, so reps
// differ only by what the host did meanwhile, and the best rep is the
// one it disturbed least. On a 2-CPU host shared with other tenants, a
// run's median moved by up to a quarter from run to run while its best
// rep moved by under a tenth (README.md has the measurements).
func best(name, unit string, samples []float64, higherIsBetter bool) metric {
	m := summarize(name, unit, samples)
	m.Value = m.Min
	if higherIsBetter {
		m.Value = m.Max
	}
	return m
}

// single wraps one measurement or one exact count.
func single(name, unit string, v float64) metric { return summarize(name, unit, []float64{v}) }
