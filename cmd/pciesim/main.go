// Command pciesim boots the simulated platform once with the requested
// PCI-Express configuration, runs a dd block read, and reports the
// throughput together with the fabric's protocol statistics.
//
// Example:
//
//	pciesim -uplink 8 -disklink 8 -replaybuf 4 -portbuf 16 -block 8
//
// Fault injection arms a deterministic FaultPlan on the disk link and
// the containment machinery that keeps a faulted run terminating:
//
//	pciesim -errrate 0.01 -dllprate 0.01 -droprate 0.005 -faultseed 7
//	pciesim -downat 14000 -downdur 0 -cto 100
//
// Flow control: -credits arms VC0 credit-based flow control on every
// link ("8" advertises 8 header credits per class, "ch=2" caps only
// completion headers; the default is the legacy infinite-credit link):
//
//	pciesim -credits 8
//	pciesim -credits ph=16,ch=2
//
// Observability: -stats prints the counter/histogram summary, -stats-out
// dumps it as JSON (or CSV), and -trace records per-packet lifecycle
// events — `-trace trace.json` writes a Chrome trace openable in
// Perfetto, with the "span" category adding per-TLP duration tracks
// (queue wait, credit stalls, wire time, completion turnaround).
// -stats-stream emits sampler snapshots as NDJSON while the run is
// going, and -prof prints the engine self-profile (per-event fire
// counts and wall-clock) after the run:
//
//	pciesim -stats -trace trace.json -prof
//	pciesim -stats-out stats.json -stats-interval 100
//	pciesim -stats-stream stream.ndjson
//
// Robustness: -hotplug yanks the disk mid-transfer (arming Downstream
// Port Containment and the kernel recovery driver), -dpc arms DPC
// containment by itself, and -degrade arms adaptive link degradation
// (sustained link errors downtrain the link; upgrade retrains climb
// back with exponential backoff):
//
//	pciesim -hotplug at=1500,reinsert=500
//	pciesim -hotplug at=1500            (permanent removal; slot abandoned)
//	pciesim -errrate 0.02 -degrade
//
// Monte-Carlo campaigns: -campaign runs the dd workload K times across
// -jobs workers and reports the outcome distribution. kind=fault (the
// default) stochastically corrupts the disk link, one RNG seed per
// run; kind=hotplug yanks the disk on K deterministic schedules, every
// fourth one permanent:
//
//	pciesim -campaign seeds=32 -jobs -1
//	pciesim -campaign kind=fault,seeds=64,rate=1e-2 -jobs 4
//	pciesim -campaign kind=hotplug,seeds=16
//
// Workload engines: -workload replaces the dd run with a seeded
// synthetic traffic engine (arrival process × op kind) fanned across
// every matching endpoint of the topology (-topo, default
// "validation"); -wl-capture writes the materialized schedule as a
// replayable trace, and -trace-in re-executes a captured trace —
// byte-identically, so a capture run and its replay produce the same
// -stats-out dump:
//
//	pciesim -workload bursty-rx -wl-capture wl.trace -stats-out a.json
//	pciesim -trace-in wl.trace -stats-out b.json   (cmp a.json b.json)
//	pciesim -workload poisson-read -topo "switch:x4(disk*4)" -wl-ops 200
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pciesim"
	"pciesim/internal/obscli"
	"pciesim/internal/sim"
)

// campaignKinds lists the valid -campaign kind= values.
var campaignKinds = []string{"fault", "hotplug"}

// parseCampaign parses "-campaign [kind=fault|hotplug,]seeds=K[,rate=R]".
func parseCampaign(spec string) (kind string, seeds int, rate float64, err error) {
	kind = "fault"
	rate = 1e-3
	rateSet := false
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return "", 0, 0, fmt.Errorf("campaign: %q is not key=value (want kind=, seeds=, rate=)", kv)
		}
		switch k {
		case "kind":
			valid := false
			for _, known := range campaignKinds {
				if v == known {
					valid = true
				}
			}
			if !valid {
				return "", 0, 0, fmt.Errorf("campaign: unknown kind %q (valid kinds: %s)",
					v, strings.Join(campaignKinds, ", "))
			}
			kind = v
		case "seeds":
			seeds, err = strconv.Atoi(v)
			if err != nil || seeds <= 0 {
				return "", 0, 0, fmt.Errorf("campaign: seeds=%q must be a positive integer", v)
			}
		case "rate":
			rate, err = strconv.ParseFloat(v, 64)
			if err != nil || rate < 0 || rate > 1 {
				return "", 0, 0, fmt.Errorf("campaign: rate=%q must be a probability", v)
			}
			rateSet = true
		default:
			return "", 0, 0, fmt.Errorf("campaign: unknown key %q (want kind=, seeds=, rate=)", k)
		}
	}
	if seeds == 0 {
		return "", 0, 0, fmt.Errorf("campaign: seeds=K is required")
	}
	if kind == "hotplug" && rateSet {
		return "", 0, 0, fmt.Errorf("campaign: rate= only applies to kind=fault (hotplug schedules are deterministic)")
	}
	return kind, seeds, rate, nil
}

// parseHotplug parses "-hotplug at=US[,reinsert=US]" (microseconds of
// simulated time; no reinsert means the removal is permanent).
func parseHotplug(spec string) (pciesim.FaultHotplug, error) {
	var h pciesim.FaultHotplug
	seen := false
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return h, fmt.Errorf("hotplug: %q is not key=value (want at=, reinsert=)", kv)
		}
		switch k {
		case "at":
			us, err := strconv.Atoi(v)
			if err != nil || us < 0 {
				return h, fmt.Errorf("hotplug: at=%q must be a non-negative integer (us)", v)
			}
			h.RemoveAt = sim.Tick(us) * sim.Microsecond
			seen = true
		case "reinsert":
			us, err := strconv.Atoi(v)
			if err != nil || us <= 0 {
				return h, fmt.Errorf("hotplug: reinsert=%q must be a positive integer (us)", v)
			}
			h.ReinsertAfter = sim.Tick(us) * sim.Microsecond
		default:
			return h, fmt.Errorf("hotplug: unknown key %q (want at=, reinsert=)", k)
		}
	}
	if !seen {
		return h, fmt.Errorf("hotplug: at=US is required")
	}
	return h, nil
}

func main() {
	gen := flag.Int("gen", 2, "PCI-Express generation for all links (1-3)")
	uplink := flag.Int("uplink", 4, "root-port to switch link width (lanes)")
	disklink := flag.Int("disklink", 1, "switch to disk link width (lanes)")
	replayBuf := flag.Int("replaybuf", 4, "link replay buffer size (TLPs)")
	portBuf := flag.Int("portbuf", 16, "switch/root port buffer size (packets)")
	switchLat := flag.Int("switchlat", 150, "switch latency (ns)")
	rcLat := flag.Int("rclat", 150, "root complex latency (ns)")
	blockMB := flag.Int("block", 4, "dd block size (MiB)")
	msi := flag.Bool("msi", false, "extend the platform with an MSI doorbell frame")
	posted := flag.Bool("posted", false, "use posted DMA writes (the paper's future-work ablation)")
	errRate := flag.Float64("errrate", 0, "disk-link per-TLP corruption probability")
	dllpRate := flag.Float64("dllprate", 0, "disk-link per-DLLP (ACK/NAK) corruption probability")
	dropRate := flag.Float64("droprate", 0, "disk-link per-packet wire-drop probability")
	faultSeed := flag.Uint64("faultseed", 1, "fault-injection RNG seed (runs replay bit-identically)")
	downAt := flag.Int("downat", -1, "surprise link-down start (us of simulated time; -1 disables)")
	downDur := flag.Int("downdur", 0, "link-down window length (us; 0 = down for good)")
	retrain := flag.Int("retrain", 20, "retrain latency after a finite down window (us)")
	cto := flag.Int("cto", 100, "root-complex completion timeout when faults are armed (us; 0 disables)")
	hotplugSpec := flag.String("hotplug", "", "surprise-remove the disk: at=US[,reinsert=US] (arms DPC containment and the kernel recovery driver)")
	dpc := flag.Bool("dpc", false, "arm Downstream Port Containment on every port plus the kernel DPC/hot-plug recovery driver")
	degrade := flag.Bool("degrade", false, "arm adaptive link degradation: sustained link errors downtrain width/generation, upgrade retrains back off exponentially")
	campaignSpec := flag.String("campaign", "", "Monte-Carlo campaign: [kind=fault|hotplug,]seeds=K[,rate=R] dd runs (fault: distinct RNG seeds; hotplug: deterministic removal schedules)")
	jobs := flag.Int("jobs", 1, "parallel campaign runs (-1 = one per CPU); output is identical at any value")
	par := flag.Int("par", 0, "timing domains for the conservative parallel engine (0 or 1 = serial); output is identical at any value")
	creditSpec := flag.String("credits", "", "VC0 flow-control credits per link: empty/\"inf\" = legacy infinite, N = uniform, or k=v pairs (ph,pd,nh,nd,ch,cd)")
	topoSpec := flag.String("topo", "", "arbitrary topology: a canned scenario (validation, fanout8, p2p) or a spec like \"switch:x4(disk*8)\"")
	workloadSpec := flag.String("workload", "", "run a synthetic workload engine instead of dd: arrival-op (e.g. poisson-rx, bursty-read), fanned across every matching endpoint of the topology")
	traceIn := flag.String("trace-in", "", "replay a captured workload trace file instead of running dd")
	wlCapture := flag.String("wl-capture", "", "with -workload: write the materialized schedule to this file as a replayable trace")
	wlOps := flag.Int("wl-ops", 300, "with -workload: operations per flow")
	wlGap := flag.Int("wl-gap", 12, "with -workload: mean inter-arrival gap per flow (us)")
	wlLen := flag.Int("wl-len", 0, "with -workload: bytes per operation (0 = 1500 for rx/tx frames, 4096 for read/write)")
	wlBurst := flag.Int("wl-burst", 16, "with -workload bursty-*: operations per burst")
	wlSeed := flag.Uint64("wl-seed", 1, "with -workload: RNG seed (flow i uses seed+i; runs replay bit-identically)")
	p2p := flag.Bool("p2p", false, "with -topo: run the peer-to-peer DMA workload instead of dd")
	reflect := flag.Bool("reflect", false, "with -topo: disable switch-level P2P turnaround (peer traffic reflects off the root complex)")
	dumpTopo := flag.Bool("dump-topo", false, "with -topo: print the lspci-style enumeration dump and exit")
	var obs obscli.Flags
	obs.Register(flag.CommandLine)
	flag.Parse()

	credits, err := pciesim.ParseCredits(*creditSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
		os.Exit(2)
	}

	if *workloadSpec != "" || *traceIn != "" {
		if *workloadSpec != "" && *traceIn != "" {
			fmt.Fprintf(os.Stderr, "pciesim: -workload and -trace-in are mutually exclusive\n")
			os.Exit(2)
		}
		if *wlCapture != "" && *workloadSpec == "" {
			fmt.Fprintf(os.Stderr, "pciesim: -wl-capture requires -workload (a replayed trace is already a file)\n")
			os.Exit(2)
		}
		wl := wlOptions{
			engine: *workloadSpec, traceIn: *traceIn, capture: *wlCapture,
			ops: *wlOps, gapUs: *wlGap, length: *wlLen, burst: *wlBurst, seed: *wlSeed,
		}
		runWorkload(*topoSpec, *gen, *par, credits, wl, obs)
		return
	}

	if *topoSpec != "" {
		runTopo(*topoSpec, *blockMB, *gen, *par, credits, *p2p, *reflect, *dumpTopo, obs)
		return
	}

	if *campaignSpec != "" {
		kind, seeds, rate, err := parseCampaign(*campaignSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
			os.Exit(2)
		}
		runCampaign(kind, seeds, rate, *jobs, *par, *blockMB, obs)
		return
	}

	spec := pciesim.CannedTopo("validation")
	spec.Link("uplink").Width = *uplink
	spec.Link("disklink").Width = *disklink
	cfg := pciesim.DefaultConfig()
	cfg.Gen = pciesim.Generation(*gen)
	cfg.ReplayBufferSize = *replayBuf
	cfg.PortBufferSize = *portBuf
	cfg.SwitchLatency = sim.Tick(*switchLat) * sim.Nanosecond
	cfg.RootComplexLatency = sim.Tick(*rcLat) * sim.Nanosecond
	// Scale the fixed dd startup with the block size so small test
	// blocks still report a steady-state-like number.
	cfg.DD.StartupOverhead = cfg.DD.StartupOverhead * sim.Tick(*blockMB) / 64
	cfg.EnableMSI = *msi
	cfg.Disk.PostedWrites = *posted
	cfg.Credits = credits
	cfg.Domains = *par

	for _, r := range []struct {
		name string
		v    float64
	}{{"-errrate", *errRate}, {"-dllprate", *dllpRate}, {"-droprate", *dropRate}} {
		if r.v < 0 || r.v > 1 {
			fmt.Fprintf(os.Stderr, "pciesim: %s %v: probability must be in [0,1]\n", r.name, r.v)
			os.Exit(2)
		}
	}
	plan := &pciesim.FaultPlan{Seed: *faultSeed}
	if *errRate > 0 || *dllpRate > 0 || *dropRate > 0 {
		rates := pciesim.FaultRates{TLPCorrupt: *errRate, DLLPCorrupt: *dllpRate, Drop: *dropRate}
		plan.Up = pciesim.FaultProfile{Rates: rates}
		plan.Down = pciesim.FaultProfile{Rates: rates}
	}
	if *downAt >= 0 {
		plan.Windows = []pciesim.FaultWindow{{
			At:       sim.Tick(*downAt) * sim.Microsecond,
			Duration: sim.Tick(*downDur) * sim.Microsecond,
		}}
		plan.RetrainLatency = sim.Tick(*retrain) * sim.Microsecond
	}
	if *hotplugSpec != "" {
		h, err := parseHotplug(*hotplugSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
			os.Exit(2)
		}
		plan.Hotplugs = []pciesim.FaultHotplug{h}
		// A yanked card needs the full containment stack to keep the
		// run terminating: DPC plus the recovery driver.
		*dpc = true
	}
	cfg.EnableDPC = *dpc
	if *degrade {
		deg := pciesim.DefaultDegradeConfig()
		cfg.Degrade = &deg
	}
	faulted := len(plan.Windows) > 0 || len(plan.Hotplugs) > 0 ||
		*errRate > 0 || *dllpRate > 0 || *dropRate > 0
	if faulted {
		cfg.Faults = map[string]*pciesim.FaultPlan{"disklink": plan}
		// Arm the containment timeouts so a dead link degrades the
		// run instead of hanging it.
		cfg.CompletionTimeout = sim.Tick(*cto) * sim.Microsecond
		cfg.DiskCmdTimeout = 2 * sim.Millisecond
		cfg.DiskDMATimeout = 500 * sim.Microsecond
	}

	s, err := pciesim.Build(spec, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
		os.Exit(2)
	}
	if err := obs.Arm(s.Eng); err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
		os.Exit(2)
	}
	topo, err := s.Boot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: boot: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("booted: %d PCI functions on %d buses; NIC interrupts via %v\n",
		len(topo.All), topo.Buses, s.NICDriver.Handle.IntMode)

	res, err := s.RunDD(uint64(*blockMB) << 20)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: dd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("dd: %v\n", res)
	fmt.Printf("simulated %v in %d events\n", s.Eng.Now(), s.Eng.TotalFired())

	disk := s.LinkByName("disklink").Link
	fmt.Println("\nlink protocol statistics (upstream direction):")
	for _, l := range []struct {
		name  string
		stats pciesim.LinkStats
	}{
		{"disk->switch", disk.Down().Stats()},
		{"switch->rootport", s.LinkByName("uplink").Link.Down().Stats()},
	} {
		st := l.stats
		fmt.Printf("  %-18s tlps=%d replays=%d (%.1f%%) timeouts=%d (%.1f%%) throttled=%d\n",
			l.name, st.TLPsTx, st.ReplaysTx, st.ReplayRate()*100,
			st.Timeouts, st.TimeoutRate()*100, st.Throttled)
		if credits.Finite() {
			fmt.Printf("  %-18s updatefc=%d stalls p/np/cpl=%d/%d/%d\n",
				"", st.UpdateFCTx, st.FCStallsP, st.FCStallsNP, st.FCStallsCpl)
		}
	}

	fmt.Println("\nerror containment:")
	for _, l := range s.LinkErrors() {
		total := l.Up.CRCErrors + l.Down.CRCErrors + l.Up.BadDLLPs + l.Down.BadDLLPs +
			l.Up.Dropped + l.Down.Dropped + l.Retrains
		if total == 0 && !l.Dead {
			continue
		}
		fmt.Printf("  %-10s crc=%d badDLLPs=%d dropped=%d retrains=%d dead=%v\n",
			l.Name, l.Up.CRCErrors+l.Down.CRCErrors, l.Up.BadDLLPs+l.Down.BadDLLPs,
			l.Up.Dropped+l.Down.Dropped, l.Retrains, l.Dead)
	}
	ctoFired, ctoLate := s.RC.CompletionTimeouts()
	fmt.Printf("  root complex: completion timeouts=%d late completions dropped=%d\n", ctoFired, ctoLate)
	if cfg.EnableDPC {
		s.Eng.Run() // drain recovery polling before reading the outcome
		triggers, recovered, abandoned := s.Recovery.Counts()
		fmt.Printf("  dpc: triggers=%d recovered=%d abandoned=%d; disk removals=%d reinserts=%d\n",
			triggers, recovered, abandoned, disk.Removals(), disk.Reinserts())
	}
	if cfg.Degrade != nil {
		fmt.Printf("  degrade: downtrains=%d uptrains=%d level=%d (%v x%d)\n",
			disk.Downtrains(), disk.Uptrains(), disk.DegradeLevel(),
			disk.CurrentGen(), disk.CurrentWidth())
	}
	if res.Errors > 0 {
		fmt.Printf("  dd: %d of %d requests errored\n", res.Errors, res.Requests)
	}
	recs, err := s.ScanAER()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: AER scan: %v\n", err)
		os.Exit(1)
	}
	if len(recs) == 0 {
		fmt.Println("  AER: no errors logged")
	}
	for _, r := range recs {
		fmt.Printf("  %v\n", r)
	}

	if err := obs.Finish(s.Eng); err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
		os.Exit(1)
	}
}

// runTopo builds an arbitrary topology from a canned scenario name or
// a spec string and runs dd on every disk (or the P2P workload).
func runTopo(spec string, blockMB, gen, par int, credits pciesim.CreditConfig, p2p, reflect, dump bool, obs obscli.Flags) {
	ts, err := pciesim.LookupTopo(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
		os.Exit(2)
	}
	cfg := pciesim.DefaultConfig()
	cfg.Gen = pciesim.Generation(gen)
	cfg.Credits = credits
	cfg.NoP2P = reflect
	cfg.Domains = par
	cfg.DD.StartupOverhead = cfg.DD.StartupOverhead * sim.Tick(blockMB) / 64
	s, err := pciesim.Build(ts, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
		os.Exit(2)
	}
	if err := obs.Arm(s.Eng); err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
		os.Exit(2)
	}
	if dump {
		if err := s.DumpEnumeration(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	tp, err := s.Boot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: boot: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("booted %s: %d PCI functions on %d buses (%d disks, %d nics, %d testdevs)\n",
		s.Spec.Name, len(tp.All), tp.Buses, len(s.Disks), len(s.NICs), len(s.TestDevs))

	switch {
	case p2p:
		res, err := s.RunP2P(64, 4)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pciesim: p2p: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("p2p: %v\n", res)
		fmt.Printf("routing: %d switch turnarounds, %d rc reflections\n",
			s.Turnarounds(), s.Reflections())
	default:
		res, err := s.RunDDAll(uint64(blockMB) << 20)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pciesim: dd: %v\n", err)
			os.Exit(1)
		}
		for i, d := range res.PerDisk {
			fmt.Printf("dd[%s]: %v\n", s.Disks[i].Name, d)
		}
		fmt.Printf("aggregate: %.3f Gb/s, fairness spread %.3f (sectors at first exit: %v)\n",
			res.AggregateThroughputGbps(), res.FairnessSpread(), res.SectorsAtFirstExit)
	}
	fmt.Printf("simulated %v in %d events\n", s.Eng.Now(), s.Eng.TotalFired())

	fmt.Println("\nerror containment:")
	quiet := true
	for _, l := range s.LinkErrors() {
		total := l.Up.CRCErrors + l.Down.CRCErrors + l.Up.BadDLLPs + l.Down.BadDLLPs +
			l.Up.Dropped + l.Down.Dropped + l.Retrains
		if total == 0 && !l.Dead {
			continue
		}
		quiet = false
		fmt.Printf("  %-10s crc=%d badDLLPs=%d dropped=%d retrains=%d dead=%v\n",
			l.Name, l.Up.CRCErrors+l.Down.CRCErrors, l.Up.BadDLLPs+l.Down.BadDLLPs,
			l.Up.Dropped+l.Down.Dropped, l.Retrains, l.Dead)
	}
	if quiet {
		fmt.Println("  all links clean")
	}
	if err := obs.Finish(s.Eng); err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
		os.Exit(1)
	}
}

// wlOptions bundles the -workload / -trace-in flag values.
type wlOptions struct {
	engine  string // synthetic engine name ("" when replaying)
	traceIn string // trace file to replay ("" when synthesizing)
	capture string // file to write the materialized trace to
	ops     int
	gapUs   int
	length  int
	burst   int
	seed    uint64
}

// runWorkload executes a synthetic workload engine or a captured trace
// against a topology platform (default "validation"). Synthesis and
// replay share this single path, so capturing a run and re-feeding the
// trace produces a byte-identical stats dump.
func runWorkload(topoSpec string, gen, par int, credits pciesim.CreditConfig, wl wlOptions, obs obscli.Flags) {
	if topoSpec == "" {
		topoSpec = "validation"
	}
	ts, err := pciesim.LookupTopo(topoSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
		os.Exit(2)
	}
	cfg := pciesim.DefaultConfig()
	cfg.Gen = pciesim.Generation(gen)
	cfg.Credits = credits
	cfg.EnableMSI = true // workload NIC flows exercise the MSI path
	cfg.Domains = par
	s, err := pciesim.Build(ts, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
		os.Exit(2)
	}
	if err := obs.Arm(s.Eng); err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
		os.Exit(2)
	}

	var tr *pciesim.WorkloadTrace
	if wl.traceIn != "" {
		f, err := os.Open(wl.traceIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
			os.Exit(2)
		}
		tr, err = pciesim.ParseWorkloadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pciesim: %s: %v\n", wl.traceIn, err)
			os.Exit(2)
		}
		fmt.Printf("replaying %s: %d ops\n", wl.traceIn, len(tr.Ops))
	} else {
		eng, err := pciesim.ParseWorkloadEngine(wl.engine)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
			os.Exit(2)
		}
		// Fan the engine across every endpoint its op kind can drive:
		// rx/tx over the NICs, read/write over the disks.
		var endpoints []string
		length := wl.length
		if eng.Op == pciesim.WorkloadOpRx || eng.Op == pciesim.WorkloadOpTx {
			for _, n := range s.NICs {
				endpoints = append(endpoints, n.Name)
			}
			if length == 0 {
				length = 1500
			}
		} else {
			for _, d := range s.Disks {
				endpoints = append(endpoints, d.Name)
			}
			if length == 0 {
				length = 4096
			}
		}
		if len(endpoints) == 0 {
			fmt.Fprintf(os.Stderr, "pciesim: topology %q has no endpoint for workload %s\n",
				topoSpec, wl.engine)
			os.Exit(2)
		}
		flows := make([]pciesim.WorkloadFlowSpec, len(endpoints))
		for i := range flows {
			flows[i] = pciesim.WorkloadFlowSpec{
				Endpoint: endpoints[i],
				Op:       eng.Op,
				Arrival:  eng.Arrival,
				Ops:      wl.ops,
				Len:      length,
				MeanGap:  sim.Tick(wl.gapUs) * sim.Microsecond,
				BurstLen: wl.burst,
				Seed:     wl.seed + uint64(i),
			}
		}
		tr, err = pciesim.SynthesizeWorkload(flows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("workload %s: %d ops across %d flows\n", wl.engine, len(tr.Ops), len(flows))
		if wl.capture != "" {
			f, err := os.Create(wl.capture)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
				os.Exit(2)
			}
			if err := tr.Encode(f); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "pciesim: %s: %v\n", wl.capture, err)
				os.Exit(2)
			}
			fmt.Printf("captured trace to %s\n", wl.capture)
		}
	}

	res, err := pciesim.RunWorkload(s, tr, pciesim.WorkloadRunConfig{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: workload: %v\n", err)
		os.Exit(1)
	}
	s.Eng.Run() // drain stragglers so the stats dump is a fixed point
	for _, f := range res.Flows {
		fmt.Printf("wl %v\n", f)
	}
	agg := 0.0
	for _, f := range res.Flows {
		agg += f.GoodputGbps()
	}
	fmt.Printf("aggregate: %.3f Gb/s, fairness spread %.3f\n", agg, res.FairnessSpread())
	fmt.Printf("simulated %v in %d events\n", s.Eng.Now(), s.Eng.TotalFired())
	if err := obs.Finish(s.Eng); err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
		os.Exit(1)
	}
}

// runCampaign runs a Monte-Carlo campaign (stochastic faults or
// surprise hot-plug) and prints the per-seed table plus the outcome
// distribution.
func runCampaign(kind string, seeds int, rate float64, jobs, par, blockMB int, obs obscli.Flags) {
	// Scale 16 with a pre-scaling block of 16x the requested size keeps
	// the simulated block at blockMB MiB while dividing dd's fixed
	// startup overhead, like the single-run path's proportional scaling.
	opt := pciesim.Options{Scale: 16, BlockMB: []int{blockMB * 16}, Jobs: jobs, Par: par}
	opt.Observe, opt.ObserveDone = obs.PerRun()
	if kind == "hotplug" {
		res, err := pciesim.RunHotplugCampaign(seeds, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res.Format())
		return
	}
	res, err := pciesim.RunFaultCampaign(seeds, rate, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(res.Format())
}
