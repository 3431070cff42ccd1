// Command pciesim boots the simulated platform once with the requested
// PCI-Express configuration, runs a dd block read, and reports the
// throughput together with the fabric's protocol statistics.
//
// Example:
//
//	pciesim -uplink 8 -disklink 8 -replaybuf 4 -portbuf 16 -block 8
//
// Every single-run mode builds its platform from the same flags: the
// default dd, -topo (dd on every disk of an arbitrary fabric), -p2p
// (peer-to-peer DMA), -dump-topo (the lspci-style enumeration),
// -workload and -trace-in, on -topo's fabric, by default "validation".
// A flag the selected mode does not use is an error, never silently
// dropped, and -block must be a positive number of MiB:
//
//	pciesim -topo fanout8 -block 1 -switchlat 50
//	pciesim -topo p2p -p2p -reflect
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
// fourth one permanent. Campaign runs configure their own platform, so
// only -block, -jobs, -par and the observability flags apply:
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
	"cmp"
	"flag"
	"fmt"
	"os"
	"slices"
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
			if !slices.Contains(campaignKinds, v) {
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

// Platform flags: build applies them in every single-run mode.
var (
	gen         = flag.Int("gen", 2, "PCI-Express generation for all links (1-3)")
	uplink      = flag.Int("uplink", 4, "root-port to switch link width (lanes); the topology needs a link named uplink")
	disklink    = flag.Int("disklink", 1, "switch to disk link width (lanes); the topology needs a link named disklink")
	replayBuf   = flag.Int("replaybuf", 4, "link replay buffer size (TLPs)")
	portBuf     = flag.Int("portbuf", 16, "switch/root port buffer size (packets)")
	switchLat   = flag.Int("switchlat", 150, "switch latency (ns)")
	rcLat       = flag.Int("rclat", 150, "root complex latency (ns)")
	msi         = flag.Bool("msi", false, "extend the platform with an MSI doorbell frame")
	posted      = flag.Bool("posted", false, "use posted DMA writes (the paper's future-work ablation)")
	creditSpec  = flag.String("credits", "", "VC0 flow-control credits per link: empty/\"inf\" = legacy infinite, N = uniform, or k=v pairs (ph,pd,nh,nd,ch,cd)")
	reflect     = flag.Bool("reflect", false, "disable switch-level P2P turnaround (peer traffic reflects off the root complex)")
	topoSpec    = flag.String("topo", "", "arbitrary topology: a canned scenario (validation, fanout8, p2p) or a spec like \"switch:x4(disk*8)\"; runs dd on every disk")
	errRate     = flag.Float64("errrate", 0, "disk-link per-TLP corruption probability")
	dllpRate    = flag.Float64("dllprate", 0, "disk-link per-DLLP (ACK/NAK) corruption probability")
	dropRate    = flag.Float64("droprate", 0, "disk-link per-packet wire-drop probability")
	faultSeed   = flag.Uint64("faultseed", 1, "fault-injection RNG seed (runs replay bit-identically)")
	downAt      = flag.Int("downat", -1, "surprise link-down start (us of simulated time; -1 disables)")
	downDur     = flag.Int("downdur", 0, "link-down window length (us; 0 = down for good)")
	retrain     = flag.Int("retrain", 20, "retrain latency after a finite down window (us)")
	cto         = flag.Int("cto", 100, "root-complex completion timeout when faults are armed (us; 0 disables)")
	hotplugSpec = flag.String("hotplug", "", "surprise-remove the disk: at=US[,reinsert=US] (arms DPC containment and the kernel recovery driver)")
	dpc         = flag.Bool("dpc", false, "arm Downstream Port Containment on every port plus the kernel DPC/hot-plug recovery driver")
	degrade     = flag.Bool("degrade", false, "arm adaptive link degradation: sustained link errors downtrain width/generation, upgrade retrains back off exponentially")
)

// Run-mode flags and the observability flags.
var (
	blockMB      = flag.Int("block", 4, "dd block size (MiB; positive)")
	campaignSpec = flag.String("campaign", "", "Monte-Carlo campaign: [kind=fault|hotplug,]seeds=K[,rate=R] dd runs (fault: distinct RNG seeds; hotplug: deterministic removal schedules)")
	jobs         = flag.Int("jobs", 1, "parallel campaign runs (-1 = one per CPU); output is identical at any value")
	par          = flag.Int("par", 0, "timing domains for the conservative parallel engine (0 or 1 = serial); output is identical at any value")
	workloadSpec = flag.String("workload", "", "run a synthetic workload engine instead of dd: arrival-op (e.g. poisson-rx, bursty-read), fanned across every matching endpoint of the topology")
	traceIn      = flag.String("trace-in", "", "replay a captured workload trace file instead of running dd")
	wlCapture    = flag.String("wl-capture", "", "with -workload: write the materialized schedule to this file as a replayable trace")
	wlOps        = flag.Int("wl-ops", 300, "with -workload: operations per flow")
	wlGap        = flag.Int("wl-gap", 12, "with -workload: mean inter-arrival gap per flow (us)")
	wlLen        = flag.Int("wl-len", 0, "with -workload: bytes per operation (0 = 1500 for rx/tx frames, 4096 for read/write)")
	wlBurst      = flag.Int("wl-burst", 16, "with -workload bursty-*: operations per burst")
	wlSeed       = flag.Uint64("wl-seed", 1, "with -workload: RNG seed (flow i uses seed+i; runs replay bit-identically)")
	p2p          = flag.Bool("p2p", false, "run the peer-to-peer DMA workload instead of dd")
	dumpTopo     = flag.Bool("dump-topo", false, "print the lspci-style enumeration dump instead of running dd")

	// obs holds the observability flags, which every mode reads;
	// obsFlags registers them apart so reads can recognize them.
	obs      obscli.Flags
	obsFlags = flag.NewFlagSet("obs", flag.ContinueOnError)
	// given lists the flags set on the command line, in name order.
	given []string
)

func main() {
	obs.Register(obsFlags)
	obsFlags.VisitAll(func(f *flag.Flag) { flag.Var(f.Value, f.Name, f.Usage) })
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { given = append(given, f.Name) })
	mode, err := runMode()
	exitOn(2, err)
	if mode == "campaign" {
		kind, seeds, rate, err := parseCampaign(*campaignSpec)
		exitOn(2, err)
		res, err := runCampaign(kind, seeds, rate)
		exitOn(1, err)
		fmt.Print(res.Format())
		return
	}
	s, err := build(mode)
	exitOn(2, err)
	exitOn(2, obs.Arm(s.Eng))
	var tr *pciesim.WorkloadTrace
	if mode == "workload" || mode == "trace-in" {
		tr, err = loadWorkload(s)
		exitOn(2, err)
	}
	tp, err := s.Boot()
	exitOn(1, err)
	switch mode {
	case "":
		fmt.Printf("booted: %d PCI functions on %d buses; NIC interrupts via %v\n",
			len(tp.All), tp.Buses, s.NICDriver.Handle.IntMode)
		err = reportDD(s)
	case "topo", "p2p":
		fmt.Printf("booted %s: %d PCI functions on %d buses (%d disks, %d nics, %d testdevs)\n",
			s.Spec.Name, len(tp.All), tp.Buses, len(s.Disks), len(s.NICs), len(s.TestDevs))
		err = reportFabric(s)
	case "dump-topo":
		err = s.DumpEnumeration(os.Stdout)
	default:
		err = reportWorkload(s, tr)
	}
	exitOn(1, err)
	exitOn(1, obs.Finish(s.Eng))
}

// exitOn prints a non-nil err and exits with code: 2 for a bad
// invocation, 1 for a failure while the simulation ran.
func exitOn(code int, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "pciesim: %v\n", err)
		os.Exit(code)
	}
}

// runMode returns the flag that selects what this invocation runs: the
// one mode flag given, else "topo" when -topo is set, else "" for the
// default dd. It rejects a -block that is not positive and any flag the
// selected mode would not read.
func runMode() (string, error) {
	mode := ""
	if *topoSpec != "" {
		mode = "topo"
	}
	for _, name := range []string{"workload", "trace-in", "campaign", "p2p", "dump-topo"} {
		if v := flag.Lookup(name).Value.String(); v == "" || v == "false" {
			continue
		}
		if mode != "" && mode != "topo" {
			return "", fmt.Errorf("-%s and -%s are mutually exclusive", mode, name)
		}
		mode = name
	}
	if *blockMB <= 0 {
		return "", fmt.Errorf("-block %d: must be a positive number of MiB", *blockMB)
	}
	for _, name := range given {
		if !reads(mode, name) {
			return "", fmt.Errorf("-%s has no effect on a %s run", name, cmp.Or(mode, "dd"))
		}
	}
	return mode, nil
}

// reads reports whether a run of mode uses flag name. The observability
// flags and -par apply to every mode; the campaign runners configure
// their own platform, so a campaign takes only -block and -jobs besides.
func reads(mode, name string) bool {
	switch {
	case obsFlags.Lookup(name) != nil || name == "par" || name == mode:
		return true
	case mode == "campaign":
		return name == "block" || name == "jobs"
	case name == "block":
		return mode == "" || mode == "topo"
	case name == "jobs":
		return false
	case strings.HasPrefix(name, "wl-"):
		return mode == "workload"
	}
	return true
}

// build assembles the platform of a single run: the one place the
// platform flags take effect, whatever the mode.
func build(mode string) (*pciesim.System, error) {
	cfg := pciesim.DefaultConfig()
	spec, err := pciesim.LookupTopo(cmp.Or(*topoSpec, "validation"))
	if err != nil {
		return nil, err
	}
	for _, l := range []struct {
		name  string
		width int
	}{{"uplink", *uplink}, {"disklink", *disklink}} {
		if !slices.Contains(given, l.name) {
			continue
		}
		link := spec.Link(l.name)
		if link == nil {
			return nil, fmt.Errorf("-%s: topology %q has no link named %s",
				l.name, cmp.Or(*topoSpec, "validation"), l.name)
		}
		link.Width = l.width
	}
	dur := func(name string, v int, unit sim.Tick) sim.Tick {
		t, terr := ticks(name, v, unit)
		err = cmp.Or(err, terr)
		return t
	}
	cfg.SwitchLatency = dur("switchlat", *switchLat, sim.Nanosecond)
	cfg.RootComplexLatency = dur("rclat", *rcLat, sim.Nanosecond)
	downStart := dur("downat", max(*downAt, 0), sim.Microsecond) // negative disables
	downFor := dur("downdur", *downDur, sim.Microsecond)
	retrainAfter := dur("retrain", *retrain, sim.Microsecond)
	ctoAfter := dur("cto", *cto, sim.Microsecond)
	if err != nil {
		return nil, err
	}
	if cfg.Credits, err = pciesim.ParseCredits(*creditSpec); err != nil {
		return nil, err
	}
	cfg.Gen = pciesim.Generation(*gen)
	cfg.ReplayBufferSize = *replayBuf
	cfg.PortBufferSize = *portBuf
	// Scale the fixed dd startup with the block size so small test
	// blocks still report a steady-state-like number.
	cfg.DD.StartupOverhead = cfg.DD.StartupOverhead * sim.Tick(*blockMB) / 64
	// Workload NIC flows exercise the MSI path.
	cfg.EnableMSI = *msi || mode == "workload" || mode == "trace-in"
	cfg.Disk.PostedWrites = *posted
	cfg.NoP2P = *reflect
	cfg.Domains = *par
	// A yanked card needs the full containment stack to keep the run
	// terminating: DPC plus the recovery driver.
	cfg.EnableDPC = *dpc || *hotplugSpec != ""
	if *degrade {
		deg := pciesim.DefaultDegradeConfig()
		cfg.Degrade = &deg
	}

	for _, r := range []struct {
		name string
		v    float64
	}{{"-errrate", *errRate}, {"-dllprate", *dllpRate}, {"-droprate", *dropRate}} {
		if r.v < 0 || r.v > 1 {
			return nil, fmt.Errorf("%s %v: probability must be in [0,1]", r.name, r.v)
		}
	}
	rates := pciesim.FaultRates{TLPCorrupt: *errRate, DLLPCorrupt: *dllpRate, Drop: *dropRate}
	plan := &pciesim.FaultPlan{Seed: *faultSeed,
		Up: pciesim.FaultProfile{Rates: rates}, Down: pciesim.FaultProfile{Rates: rates}}
	if *downAt >= 0 {
		plan.Windows = []pciesim.FaultWindow{{At: downStart, Duration: downFor}}
		plan.RetrainLatency = retrainAfter
	}
	if *hotplugSpec != "" {
		h, err := parseHotplug(*hotplugSpec)
		if err != nil {
			return nil, err
		}
		plan.Hotplugs = []pciesim.FaultHotplug{h}
	}
	if len(plan.Windows) > 0 || len(plan.Hotplugs) > 0 || rates != (pciesim.FaultRates{}) {
		cfg.Faults = map[string]*pciesim.FaultPlan{"disklink": plan}
		// Arm the containment timeouts so a dead link degrades the
		// run instead of hanging it.
		cfg.CompletionTimeout = ctoAfter
		cfg.DiskCmdTimeout = 2 * sim.Millisecond
		cfg.DiskDMATimeout = 500 * sim.Microsecond
	}
	return pciesim.Build(spec, cfg)
}

// ticks converts the duration flag name, given in unit, to simulated
// time. A negative value or one past the tick range is an error rather
// than a wrapped unsigned product.
func ticks(name string, v int, unit sim.Tick) (sim.Tick, error) {
	if v < 0 || uint64(v) > uint64(sim.MaxTick/unit) {
		return 0, fmt.Errorf("-%s %d: duration outside 0..%d", name, v, sim.MaxTick/unit)
	}
	return sim.Tick(v) * unit, nil
}

// reportDD runs one dd on the validation platform's disk and prints its
// throughput, the disk path's link protocol counters and the
// error-containment outcome.
func reportDD(s *pciesim.System) error {
	res, err := s.RunDD(uint64(*blockMB) << 20)
	if err != nil {
		return fmt.Errorf("dd: %w", err)
	}
	fmt.Printf("dd: %v\n", res)
	fmt.Printf("simulated %v in %d events\n", s.Eng.Now(), s.Eng.TotalFired())

	disk := s.LinkByName("disklink").Link
	fmt.Println("\nlink protocol statistics (upstream direction):")
	for _, l := range []struct{ label, link string }{{"disk->switch", "disklink"}, {"switch->rootport", "uplink"}} {
		st := s.LinkByName(l.link).Link.Down().Stats()
		fmt.Printf("  %-18s tlps=%d replays=%d (%.1f%%) timeouts=%d (%.1f%%) throttled=%d\n",
			l.label, st.TLPsTx, st.ReplaysTx, st.ReplayRate()*100,
			st.Timeouts, st.TimeoutRate()*100, st.Throttled)
		if s.Cfg.Credits.Finite() {
			fmt.Printf("  %-18s updatefc=%d stalls p/np/cpl=%d/%d/%d\n",
				"", st.UpdateFCTx, st.FCStallsP, st.FCStallsNP, st.FCStallsCpl)
		}
	}

	fmt.Println("\nerror containment:")
	printLinkErrors(s)
	ctoFired, ctoLate := s.RC.CompletionTimeouts()
	fmt.Printf("  root complex: completion timeouts=%d late completions dropped=%d\n", ctoFired, ctoLate)
	if s.Cfg.EnableDPC {
		s.Eng.Run() // drain recovery polling before reading the outcome
		triggers, recovered, abandoned := s.Recovery.Counts()
		fmt.Printf("  dpc: triggers=%d recovered=%d abandoned=%d; disk removals=%d reinserts=%d\n",
			triggers, recovered, abandoned, disk.Removals(), disk.Reinserts())
	}
	if s.Cfg.Degrade != nil {
		fmt.Printf("  degrade: downtrains=%d uptrains=%d level=%d (%v x%d)\n",
			disk.Downtrains(), disk.Uptrains(), disk.DegradeLevel(),
			disk.CurrentGen(), disk.CurrentWidth())
	}
	if res.Errors > 0 {
		fmt.Printf("  dd: %d of %d requests errored\n", res.Errors, res.Requests)
	}
	recs, err := s.ScanAER()
	if err != nil {
		return fmt.Errorf("AER scan: %w", err)
	}
	if len(recs) == 0 {
		fmt.Println("  AER: no errors logged")
	}
	for _, r := range recs {
		fmt.Printf("  %v\n", r)
	}
	return nil
}

// reportFabric runs dd on every disk at once (with -p2p, the
// peer-to-peer DMA workload instead) and prints the results and every
// link's error counters.
func reportFabric(s *pciesim.System) error {
	if *p2p {
		res, err := s.RunP2P(64, 4)
		if err != nil {
			return fmt.Errorf("p2p: %w", err)
		}
		fmt.Printf("p2p: %v\n", res)
		fmt.Printf("routing: %d switch turnarounds, %d rc reflections\n",
			s.Turnarounds(), s.Reflections())
	} else {
		res, err := s.RunDDAll(uint64(*blockMB) << 20)
		if err != nil {
			return fmt.Errorf("dd: %w", err)
		}
		for i, d := range res.PerDisk {
			fmt.Printf("dd[%s]: %v\n", s.Disks[i].Name, d)
		}
		fmt.Printf("aggregate: %.3f Gb/s, fairness spread %.3f (sectors at first exit: %v)\n",
			res.AggregateThroughputGbps(), res.FairnessSpread(), res.SectorsAtFirstExit)
	}
	fmt.Printf("simulated %v in %d events\n", s.Eng.Now(), s.Eng.TotalFired())

	fmt.Println("\nerror containment:")
	if !printLinkErrors(s) {
		fmt.Println("  all links clean")
	}
	return nil
}

// printLinkErrors prints every link that is dead or has a nonzero error
// or retrain counter, and reports whether it printed any.
func printLinkErrors(s *pciesim.System) bool {
	printed := false
	for _, l := range s.LinkErrors() {
		total := l.Up.CRCErrors + l.Down.CRCErrors + l.Up.BadDLLPs + l.Down.BadDLLPs +
			l.Up.Dropped + l.Down.Dropped + l.Retrains
		if total == 0 && !l.Dead {
			continue
		}
		printed = true
		fmt.Printf("  %-10s crc=%d badDLLPs=%d dropped=%d retrains=%d dead=%v\n",
			l.Name, l.Up.CRCErrors+l.Down.CRCErrors, l.Up.BadDLLPs+l.Down.BadDLLPs,
			l.Up.Dropped+l.Down.Dropped, l.Retrains, l.Dead)
	}
	return printed
}

// loadWorkload reads the -trace-in trace, or synthesizes the -workload
// engine across every endpoint of s its op kind can drive and captures
// the schedule to -wl-capture. Synthesis and replay then share one
// execution path, so a capture run and the replay of its trace produce
// byte-identical stats dumps.
func loadWorkload(s *pciesim.System) (*pciesim.WorkloadTrace, error) {
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			return nil, err
		}
		tr, err := pciesim.ParseWorkloadTrace(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", *traceIn, err)
		}
		fmt.Printf("replaying %s: %d ops\n", *traceIn, len(tr.Ops))
		return tr, nil
	}
	eng, err := pciesim.ParseWorkloadEngine(*workloadSpec)
	if err != nil {
		return nil, err
	}
	gap, err := ticks("wl-gap", *wlGap, sim.Microsecond)
	if err != nil {
		return nil, err
	}
	// Fan the engine across every endpoint its op kind can drive:
	// rx/tx over the NICs, read/write over the disks.
	var endpoints []string
	length := cmp.Or(*wlLen, 4096)
	if eng.Op == pciesim.WorkloadOpRx || eng.Op == pciesim.WorkloadOpTx {
		length = cmp.Or(*wlLen, 1500)
		for _, n := range s.NICs {
			endpoints = append(endpoints, n.Name)
		}
	} else {
		for _, d := range s.Disks {
			endpoints = append(endpoints, d.Name)
		}
	}
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("topology %q has no endpoint for workload %s",
			cmp.Or(*topoSpec, "validation"), *workloadSpec)
	}
	flows := make([]pciesim.WorkloadFlowSpec, len(endpoints))
	for i := range flows {
		flows[i] = pciesim.WorkloadFlowSpec{
			Endpoint: endpoints[i],
			Op:       eng.Op,
			Arrival:  eng.Arrival,
			Ops:      *wlOps,
			Len:      length,
			MeanGap:  gap,
			BurstLen: *wlBurst,
			Seed:     *wlSeed + uint64(i),
		}
	}
	tr, err := pciesim.SynthesizeWorkload(flows)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s: %d ops across %d flows\n", *workloadSpec, len(tr.Ops), len(flows))
	if *wlCapture == "" {
		return tr, nil
	}
	f, err := os.Create(*wlCapture)
	if err != nil {
		return nil, err
	}
	err = tr.Encode(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", *wlCapture, err)
	}
	fmt.Printf("captured trace to %s\n", *wlCapture)
	return tr, nil
}

// reportWorkload executes the trace and prints each flow's goodput and
// latency plus the aggregate.
func reportWorkload(s *pciesim.System, tr *pciesim.WorkloadTrace) error {
	res, err := pciesim.RunWorkload(s, tr, pciesim.WorkloadRunConfig{})
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	s.Eng.Run() // drain stragglers so the stats dump is a fixed point
	agg := 0.0
	for _, f := range res.Flows {
		fmt.Printf("wl %v\n", f)
		agg += f.GoodputGbps()
	}
	fmt.Printf("aggregate: %.3f Gb/s, fairness spread %.3f\n", agg, res.FairnessSpread())
	fmt.Printf("simulated %v in %d events\n", s.Eng.Now(), s.Eng.TotalFired())
	return nil
}

// runCampaign runs a Monte-Carlo campaign (stochastic faults or
// surprise hot-plug); its Format is the per-seed table plus the outcome
// distribution.
func runCampaign(kind string, seeds int, rate float64) (interface{ Format() string }, error) {
	// Scale 16 with a pre-scaling block of 16x the requested size keeps
	// the simulated block at -block MiB while dividing dd's fixed
	// startup overhead, like the single-run path's proportional scaling.
	opt := pciesim.Options{Scale: 16, BlockMB: []int{*blockMB * 16}, Jobs: *jobs, Par: *par}
	opt.Observe, opt.ObserveDone = obs.PerRun()
	if kind == "hotplug" {
		return pciesim.RunHotplugCampaign(seeds, opt)
	}
	return pciesim.RunFaultCampaign(seeds, rate, opt)
}
