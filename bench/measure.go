package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"pciesim/internal/phys"
	"pciesim/internal/sim"
	"pciesim/internal/topo"
)

// rep is one build-boot-run of a workload, measured from outside.
type rep struct {
	build, boot, run time.Duration
	allocBytes       uint64
	mallocs          uint64
	simSeconds       float64
	model            modelOut
	// counts are the run section's model counters (see counters).
	counts      map[string]uint64
	domainShare float64 // largest timing domain's share of fired events
	fingerprint string
	layers      layerMap
	prof        *sim.Profiler // merged across domains; traced reps only
}

// platform is a built and booted system ready for the timed call.
type platform struct {
	sys         *topo.System
	run         func(*topo.System) (modelOut, error)
	build, boot time.Duration
}

// setUp generates the rep's inputs, then builds and boots a fresh
// platform, timing build and boot apart: they are set-up, not the run.
func setUp(w workload, seed uint64) (platform, error) {
	var p platform
	spec, cfg, run, err := w.setup(seed, w.size)
	if err != nil {
		return p, err
	}
	// One host thread per timing domain: a serial simulation gets one
	// core, so its time does not depend on whether a neighbour is using
	// the other (the runtime would otherwise run GC work there). The
	// collection clears the previous rep's garbage, which would otherwise
	// be collected inside this set-up's timing.
	runtime.GOMAXPROCS(min(max(cfg.Domains, 1), runtime.NumCPU()))
	runtime.GC()
	t0 := time.Now()
	sys, err := topo.Build(spec, cfg)
	if err != nil {
		return p, err
	}
	t1 := time.Now()
	if _, err := sys.Boot(); err != nil {
		return p, err
	}
	return platform{sys, run, t1.Sub(t0), time.Since(t1)}, nil
}

// runRep sets up a platform, then times the workload call plus the
// drain that makes the stats dump a fixed point. With traced set, every
// timing domain's profiler is armed after boot, so the profile covers
// exactly the timed section.
func runRep(w workload, seed uint64, traced bool) (rep, error) {
	var r rep
	p, err := setUp(w, seed)
	if err != nil {
		return r, err
	}
	sys := p.sys
	r.build, r.boot = p.build, p.boot

	engines := sys.Eng.DomainEngines()
	if engines == nil {
		engines = []*sim.Engine{sys.Eng}
	}
	if traced {
		for _, e := range engines {
			e.Profile()
		}
	}
	r.layers = newLayerMap(sys)
	before := counters(sys, r.layers)
	firedBefore := make([]uint64, len(engines))
	for i, e := range engines {
		firedBefore[i] = e.Fired()
	}
	simStart := sys.Eng.Now()

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t2 := time.Now()
	r.model, err = p.run(sys)
	sys.Eng.Run()
	r.run = time.Since(t2)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, err
	}

	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.simSeconds = (sys.Eng.Now() - simStart).Seconds()
	r.counts = counters(sys, r.layers)
	for k, v := range before {
		r.counts[k] -= v
	}
	var maxFired uint64
	for i, e := range engines {
		maxFired = max(maxFired, e.Fired()-firedBefore[i])
	}
	r.domainShare = ratio(float64(maxFired), float64(r.counts["fired"]))
	if traced {
		r.prof = sys.Eng.Prof()
		for _, e := range engines[1:] {
			r.prof.Merge(e.Prof())
		}
	}
	r.fingerprint, err = fingerprint(sys)
	return r, err
}

// counters snapshots the cumulative model and engine counters the
// per-layer metrics are deltas of.
func counters(sys *topo.System, m layerMap) map[string]uint64 {
	reg := sys.Eng.Stats()
	c := map[string]uint64{"fired": sys.Eng.TotalFired()}
	for _, k := range []string{"sim.recycled", "mem.pool.allocs", "mem.pool.reuses"} {
		c[k], _ = reg.CounterValue(k)
	}
	for _, l := range sys.LinkErrors() {
		for _, s := range []struct{ tlps, replays, timeouts, naks, throttled, fc, updatefc uint64 }{
			{l.Up.TLPsTx, l.Up.ReplaysTx, l.Up.Timeouts, l.Up.NaksTx, l.Up.Throttled,
				l.Up.FCStallsP + l.Up.FCStallsNP + l.Up.FCStallsCpl, l.Up.UpdateFCTx},
			{l.Down.TLPsTx, l.Down.ReplaysTx, l.Down.Timeouts, l.Down.NaksTx, l.Down.Throttled,
				l.Down.FCStallsP + l.Down.FCStallsNP + l.Down.FCStallsCpl, l.Down.UpdateFCTx},
		} {
			c["link.tlps_tx"] += s.tlps
			c["link.replays"] += s.replays
			c["link.timeouts"] += s.timeouts
			c["link.naks"] += s.naks
			c["link.throttled"] += s.throttled
			c["link.fc_stalls"] += s.fc
			c["link.updatefc"] += s.updatefc
		}
	}
	for _, name := range reg.CounterNames() {
		if strings.HasSuffix(name, ".refusals") && m.layerOf(name) == "router" {
			v, _ := reg.CounterValue(name)
			c["router.refusals"] += v
		}
	}
	hits, misses, _, _, _ := sys.IOCache.Stats()
	c["cache.hits"], c["cache.misses"] = hits, misses
	reads, writes, _, _, _ := sys.DRAM.Stats()
	c["memctrl.reqs"] = reads + writes
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// outcome is what one workload measurement reports.
type outcome struct {
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Errors      []string `json:"errors,omitempty"`
	Fingerprint string   `json:"fingerprint"`
	Metrics     []metric `json:"metrics"`
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.Errors = append(o.Errors, fmt.Sprintf(format, args...))
}

// minReps keeps a median meaningful when one rep outlasts the budget;
// minSetups is the least number of set-ups setup_s is the median of.
const (
	minReps   = 3
	minSetups = 20
)

// measure runs one workload: a discarded warm-up rep, then reps until
// budget has passed (at least minReps), then, when traced, one profiled
// rep, the fanout sibling for par.speedup, and the isolated rigs.
// Every rep's fingerprint must equal want, or the first rep's when want
// is empty.
func measure(w workload, seed uint64, budget time.Duration, traced bool, want string) outcome {
	var o outcome
	check := func(r rep, err error, what string) bool {
		o.Attempted++
		if err != nil {
			o.fail("%s: %v", what, err)
			return false
		}
		if o.Fingerprint == "" {
			o.Fingerprint = r.fingerprint
			if want == "" {
				want = r.fingerprint
			}
		}
		if r.fingerprint != want {
			o.fail("%s: model fingerprint %.12s, want %.12s", what, r.fingerprint, want)
			return false
		}
		return true
	}

	warm, err := runRep(w, seed, false)
	check(warm, err, "warm-up rep")
	var reps []rep
	start := time.Now()
	for i := 1; i <= minReps || time.Since(start) < budget; i++ {
		r, err := runRep(w, seed, false)
		if check(r, err, fmt.Sprintf("rep %d", i)) {
			reps = append(reps, r)
		}
	}
	if len(reps) == 0 {
		return o
	}

	var runS, simRate, setup, allocMB, allocsK, build, boot []float64
	for _, r := range reps {
		runS = append(runS, r.run.Seconds())
		simRate = append(simRate, r.simSeconds/r.run.Seconds())
		allocMB = append(allocMB, float64(r.allocBytes)/1e6)
		allocsK = append(allocsK, float64(r.mallocs)/1e3)
		build = append(build, r.build.Seconds())
		boot = append(boot, r.boot.Seconds())
	}
	// Set-up takes milliseconds, so its median needs more samples than
	// the reps give; top them up with set-ups that are not run.
	for len(build) < minSetups {
		p, err := setUp(w, seed)
		if err != nil {
			o.fail("set-up: %v", err)
			return o
		}
		build = append(build, p.build.Seconds())
		boot = append(boot, p.boot.Seconds())
	}
	for i := range build {
		setup = append(setup, build[i]+boot[i])
	}
	if !traced {
		o.Metrics = []metric{
			best("run_s", "s", runS, false),
			best("simsec_per_s", "simsec/s", simRate, true),
			summarize("setup_s", "s", setup),
			summarize("alloc_mb", "MB", allocMB),
			summarize("allocs_k", "k", allocsK),
		}
		return o
	}

	tr, err := runRep(w, seed, true)
	if !check(tr, err, "traced rep") {
		return o
	}
	runBest := best("", "", runS, false).Value
	events := tr.counts["fired"]
	var tb bytes.Buffer
	if err := tr.prof.WriteTable(&tb, 0, true); err != nil {
		o.fail("profile: %v", err)
		return o
	}
	rows, err := parseProfile(&tb)
	if err != nil {
		o.fail("%v", err)
		return o
	}
	per := byLayer(rows, tr.layers)
	var sumEvents, sumSame uint64
	var sumWall float64
	for _, l := range layers {
		sumEvents += per[l].events
		sumSame += per[l].sameTick
		sumWall += per[l].wallNs
	}
	if sumEvents != events || reps[0].counts["fired"] != events {
		o.fail("layer events sum to %d; untraced rep fired %d, traced rep %d", sumEvents, reps[0].counts["fired"], events)
	}

	add := func(name, unit string, v float64) { o.Metrics = append(o.Metrics, single(name, unit, v)) }
	for _, l := range layers {
		t := per[l]
		add(l+".events", "count", float64(t.events))
		add(l+".same_tick", "count", float64(t.sameTick))
		add(l+".wall_share", "ratio", ratio(t.wallNs, sumWall))
		add(l+".ns_per_event", "ns", ratio(t.wallNs, float64(t.events)))
	}
	c := tr.counts
	add("sim.events", "count", float64(events))
	add("sim.same_tick", "count", float64(sumSame))
	add("sim.ns_per_event", "ns", ratio(runBest*1e9, float64(events)))
	add("sim.events_per_tlp", "ratio", ratio(float64(events), float64(c["link.tlps_tx"])))
	add("trace.overhead", "ratio", ratio(tr.run.Seconds(), runBest))
	for _, k := range []string{"link.tlps_tx", "link.replays", "link.timeouts", "link.naks", "link.throttled",
		"link.fc_stalls", "link.updatefc", "router.refusals", "cache.hits", "cache.misses", "memctrl.reqs"} {
		add(k, "count", float64(c[k]))
	}
	add("mem.pool_reuse_ratio", "ratio",
		ratio(float64(c["mem.pool.reuses"]), float64(c["mem.pool.allocs"]+c["mem.pool.reuses"])))
	add("sim.recycle_ratio", "ratio", ratio(float64(c["sim.recycled"]), float64(events)))
	add("par.domain_share_max", "ratio", tr.domainShare)
	add("par.speedup", "ratio", parSpeedup(w, seed, runBest, check))
	o.Metrics = append(o.Metrics, summarize("topo.build_s", "s", build), summarize("topo.boot_s", "s", boot))
	add("model.sim_s", "s", tr.simSeconds)
	add("model.gbps", "Gb/s", tr.model.gbps)
	add("model.p99_us", "us", tr.model.p99us)
	add("model.phys_err_pct", "%", physErrPct(w, tr.model.gbps))
	micro, err := runMicros()
	if err != nil {
		o.fail("micro: %v", err)
		return o
	}
	o.Metrics = append(o.Metrics, micro...)
	return o
}

// parSpeedup is serial over 2-domain run time of the fanout simulation,
// from this workload's median and one rep of its sibling. It is 0 on
// workloads without a parallel sibling.
func parSpeedup(w workload, seed uint64, runBest float64, check func(rep, error, string) bool) float64 {
	sibling := map[string]string{"fanout18": "fanout18-par2", "fanout18-par2": "fanout18"}[w.name]
	if sibling == "" {
		return 0
	}
	sw, _ := findWorkload(sibling)
	sw.size = w.size
	r, err := runRep(sw, seed, false)
	if !check(r, err, sibling+" rep") {
		return 0
	}
	if w.name == "fanout18" {
		return runBest / r.run.Seconds()
	}
	return r.run.Seconds() / runBest
}

// physErrPct is the dd-read model's absolute error against the
// analytical physical testbed at the same block size and the same
// 1/64 startup scale. It is 0 on the other workloads, which have no
// physical reference.
func physErrPct(w workload, gbps float64) float64 {
	if w.name != "dd-read" {
		return 0
	}
	pc := phys.DefaultConfig()
	pc.StartupOverhead /= 64
	ref := pc.DDThroughputGbps(uint64(w.size))
	return math.Abs(gbps-ref) / ref * 100
}
