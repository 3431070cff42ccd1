package pciesim

import (
	"fmt"
	"sort"
	"strings"

	"pciesim/internal/campaign"
	"pciesim/internal/fault"
	"pciesim/internal/pcie"
	"pciesim/internal/sim"
	"pciesim/internal/topo"
)

// Options scales the evaluation workloads. The paper transfers single
// dd blocks of 64-512 MiB; Scale divides both the block sizes and dd's
// fixed startup overhead by the same factor, which leaves the reported
// throughput curve mathematically unchanged (throughput depends only on
// their ratio plus per-sector terms) while cutting simulation time.
type Options struct {
	// Scale divides the paper's block sizes; 1 reproduces them at full
	// size. DefaultOptions uses 16 (4-32 MiB blocks).
	Scale int
	// BlockMB overrides the block-size sweep (pre-scaling); defaults to
	// the paper's {64, 128, 256, 512}.
	BlockMB []int
	// Jobs is the worker count for fanning independent runs across
	// CPUs. 1 (and 0) runs serially; -1 uses one worker per CPU. Each
	// run still owns a single-threaded engine, so results are
	// byte-identical at any job count.
	Jobs int
	// Observe, when set, is called with each freshly built platform's
	// root engine before its workload runs — the hook for installing
	// tracers and samplers. The label identifies the run ("x8@512MB",
	// "dead"). With Jobs > 1 it is called concurrently from worker
	// goroutines: it must only touch the engine it is handed. A non-nil
	// error aborts the sweep.
	Observe func(eng *sim.Engine, label string) error
	// ObserveDone, when set, is called after the run's workload (and any
	// straggler drain) completes, before the platform is discarded. It
	// is always called serially, in sweep submission order, whatever
	// Jobs is — the safe place for printing and file output.
	ObserveDone func(eng *sim.Engine, label string) error
	// Par requests the conservative parallel engine with this many
	// timing domains per simulation (the -par flag). 0 and 1 keep the
	// serial engine. Unlike Jobs — which fans independent runs across
	// CPUs — Par parallelizes within one simulation; results stay
	// byte-identical to serial at any value.
	Par int
}

// DefaultOptions returns the 16x-scaled workload.
func DefaultOptions() Options { return Options{Scale: 16} }

func (o Options) normalize() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if len(o.BlockMB) == 0 {
		o.BlockMB = []int{64, 128, 256, 512}
	}
	return o
}

// jobs maps the Options knob onto the campaign runner's convention:
// 0 (unset) means serial, negative means one worker per CPU.
func (o Options) jobs() int {
	if o.Jobs == 0 {
		return 1
	}
	return o.Jobs
}

// config is the calibrated baseline with dd's fixed startup overhead
// divided by Scale and the parallel engine at Par timing domains.
func (o Options) config() Config {
	cfg := DefaultConfig()
	cfg.DD.StartupOverhead /= sim.Tick(o.Scale)
	cfg.Domains = o.Par
	return cfg
}

func (o Options) blockBytes(mb int) uint64 { return uint64(mb) << 20 / uint64(o.Scale) }

// job is one independent simulation of an experiment: the platform to
// build, the label its observability hooks and errors carry, and the
// measurement to take on it.
type job[T any] struct {
	label string
	spec  *TopoSpec
	cfg   Config
	run   func(sys *System) (T, error)
}

// runJobs is the experiments' one runner. It fans the jobs across
// opt.Jobs workers; each builds its platform, hands the root engine to
// opt.Observe, and takes its measurement. opt.ObserveDone then fires
// serially in submission order under the same label, and the results
// come back in that order, so the output is byte-identical at any job
// count.
func runJobs[T any](opt Options, jobs []job[T]) ([]T, error) {
	out := make([]T, len(jobs))
	type outcome struct {
		v   T
		eng *sim.Engine
	}
	err := campaign.RunCollect(opt.jobs(), len(jobs),
		func(k int) (outcome, error) {
			j := jobs[k]
			sys, err := Build(j.spec, j.cfg)
			if err != nil {
				return outcome{}, fmt.Errorf("%s: %w", j.label, err)
			}
			if opt.Observe != nil {
				if err := opt.Observe(sys.Eng, j.label); err != nil {
					return outcome{}, err
				}
			}
			v, err := j.run(sys)
			if err != nil {
				return outcome{}, fmt.Errorf("%s: %w", j.label, err)
			}
			return outcome{v: v, eng: sys.Eng}, nil
		},
		func(k int, o outcome) error {
			if opt.ObserveDone != nil {
				if err := opt.ObserveDone(o.eng, jobs[k].label); err != nil {
					return err
				}
			}
			out[k] = o.v
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Link names of the validation platform's disk DMA path.
const (
	uplinkName   = "uplink"   // root port -> switch
	diskLinkName = "disklink" // switch -> disk
)

// validation returns the §VI-A spec with the uplink and the disk link
// both at width lanes; width 0 keeps the canned x4/x1.
func validation(width int) *TopoSpec {
	spec := topo.Validation()
	if width > 0 {
		spec.Link(uplinkName).Width = width
		spec.Link(diskLinkName).Width = width
	}
	return spec
}

// withDiskFault returns cfg with plan attached to the disk link. The map
// is fresh on every call: a fault.Plan is mutated by the link that
// adopts it, so runs must never share one.
func withDiskFault(cfg Config, plan *fault.Plan) Config {
	cfg.Faults = map[string]*fault.Plan{diskLinkName: plan}
	return cfg
}

// bootEnd boots a throwaway platform and returns the tick boot ends at.
// Boot is deterministic, so experiments use it to place scheduled
// faults relative to the workload.
func bootEnd(spec *TopoSpec, cfg Config) (sim.Tick, error) {
	sys, err := Build(spec, cfg)
	if err != nil {
		return 0, err
	}
	if _, err := sys.Boot(); err != nil {
		return 0, err
	}
	return sys.Eng.Now(), nil
}

// Point is one measurement in a figure series.
type Point struct {
	// X is the block size in (unscaled) MiB.
	X int
	// Gbps is the dd-reported throughput.
	Gbps float64
	// ReplayPct and TimeoutPct are the protocol-health metrics on the
	// congested upstream link (0 where not applicable).
	ReplayPct  float64
	TimeoutPct float64
	// ReqLat summarizes the dd per-request latency distribution.
	ReqLat LatencySummary
}

// Series is one configuration's sweep across block sizes.
type Series struct {
	Label  string
	Points []Point
}

// Figure is the result of regenerating one figure.
type Figure struct {
	ID     string
	Title  string
	Series []Series
}

// sweepSpec names one configuration of a figure's sweep: the validation
// platform with every disk-path link at width lanes (0 = canned) under
// cfg.
type sweepSpec struct {
	label string
	width int
	cfg   Config
}

// runSweeps evaluates every (configuration, block size) pair of a
// figure as one flat campaign, so Jobs > 1 overlaps runs across series
// as well as within them — a figure of S series and B block sizes is
// S×B independent single-threaded simulations.
func runSweeps(specs []sweepSpec, opt Options) ([]Series, error) {
	nb := len(opt.BlockMB)
	var jobs []job[Point]
	for _, sp := range specs {
		for _, mb := range opt.BlockMB {
			jobs = append(jobs, job[Point]{
				label: fmt.Sprintf("%s@%dMB", sp.label, mb),
				spec:  validation(sp.width),
				cfg:   sp.cfg,
				run: func(sys *System) (Point, error) {
					res, err := sys.RunDD(opt.blockBytes(mb))
					if err != nil {
						return Point{}, err
					}
					// Congestion metrics: take the worst upstream direction
					// across the two links on the disk's DMA path.
					disk := sys.LinkByName(diskLinkName).Link.Down().Stats()
					up := sys.LinkByName(uplinkName).Link.Down().Stats()
					return Point{
						X:          mb,
						Gbps:       res.ThroughputGbps(),
						ReplayPct:  max(disk.ReplayRate(), up.ReplayRate()) * 100,
						TimeoutPct: max(disk.TimeoutRate(), up.TimeoutRate()) * 100,
						ReqLat:     res.ReqLat,
					}, nil
				},
			})
		}
	}
	points, err := runJobs(opt, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(specs))
	for i, sp := range specs {
		out[i] = Series{Label: sp.label, Points: points[i*nb : (i+1)*nb]}
	}
	return out, nil
}

// RunFig9a regenerates Fig 9(a): dd throughput on the physical
// reference versus the simulated platform with switch latencies of 50,
// 100 and 150 ns.
func RunFig9a(opt Options) (Figure, error) {
	opt = opt.normalize()
	fig := Figure{ID: "fig9a", Title: "dd throughput: phys vs simulated, switch latency sweep"}

	physCfg := DefaultPhysConfig()
	physCfg.StartupOverhead /= sim.Tick(opt.Scale)
	physSeries := Series{Label: "phys"}
	for _, mb := range opt.BlockMB {
		physSeries.Points = append(physSeries.Points, Point{
			X:    mb,
			Gbps: physCfg.DDThroughputGbps(opt.blockBytes(mb)),
		})
	}
	fig.Series = append(fig.Series, physSeries)

	var specs []sweepSpec
	for _, lat := range []sim.Tick{50, 100, 150} {
		cfg := opt.config()
		cfg.SwitchLatency = lat * sim.Nanosecond
		specs = append(specs, sweepSpec{fmt.Sprintf("L%dns", lat), 0, cfg})
	}
	series, err := runSweeps(specs, opt)
	if err != nil {
		return Figure{}, err
	}
	fig.Series = append(fig.Series, series...)
	return fig, nil
}

// RunFig9b regenerates Fig 9(b): every link in the fabric swept across
// widths x1/x2/x4/x8.
func RunFig9b(opt Options) (Figure, error) {
	opt = opt.normalize()
	fig := Figure{ID: "fig9b", Title: "dd throughput vs PCI-Express link width"}
	var specs []sweepSpec
	for _, w := range []int{1, 2, 4, 8} {
		specs = append(specs, sweepSpec{fmt.Sprintf("x%d", w), w, opt.config()})
	}
	series, err := runSweeps(specs, opt)
	if err != nil {
		return Figure{}, err
	}
	fig.Series = series
	return fig, nil
}

// RunFig9c regenerates Fig 9(c): x8 links with replay buffer sizes 1-4.
func RunFig9c(opt Options) (Figure, error) {
	opt = opt.normalize()
	fig := Figure{ID: "fig9c", Title: "x8 dd throughput vs replay buffer size"}
	var specs []sweepSpec
	for _, rb := range []int{1, 2, 3, 4} {
		cfg := opt.config()
		cfg.ReplayBufferSize = rb
		specs = append(specs, sweepSpec{fmt.Sprintf("rb%d", rb), 8, cfg})
	}
	series, err := runSweeps(specs, opt)
	if err != nil {
		return Figure{}, err
	}
	fig.Series = series
	return fig, nil
}

// RunFig9d regenerates Fig 9(d): x8 links with switch/root port buffer
// sizes 16-28.
func RunFig9d(opt Options) (Figure, error) {
	opt = opt.normalize()
	fig := Figure{ID: "fig9d", Title: "x8 dd throughput vs switch/root port buffer size"}
	var specs []sweepSpec
	for _, pb := range []int{16, 20, 24, 28} {
		cfg := opt.config()
		cfg.PortBufferSize = pb
		specs = append(specs, sweepSpec{fmt.Sprintf("pb%d", pb), 8, cfg})
	}
	series, err := runSweeps(specs, opt)
	if err != nil {
		return Figure{}, err
	}
	fig.Series = series
	return fig, nil
}

// TableIIRow pairs a root complex latency with the measured MMIO read
// latency.
type TableIIRow struct {
	RCLatencyNs   int
	MMIOLatencyNs float64
}

// RunTableII regenerates Table II: the 4-byte NIC register read latency
// as the root complex latency sweeps 50-150 ns. The five probe runs are
// independent platforms and fan across jobs workers (1 or 0 is serial).
func RunTableII(jobs int) ([]TableIIRow, error) {
	lats := []int{50, 75, 100, 125, 150}
	runs := make([]job[TableIIRow], len(lats))
	for i, lat := range lats {
		cfg := DefaultConfig()
		cfg.RootComplexLatency = sim.Tick(lat) * sim.Nanosecond
		runs[i] = job[TableIIRow]{
			label: fmt.Sprintf("rc=%dns", lat),
			spec:  validation(0),
			cfg:   cfg,
			run: func(sys *System) (TableIIRow, error) {
				res, err := sys.MMIOProbe(64)
				if err != nil {
					return TableIIRow{}, err
				}
				return TableIIRow{RCLatencyNs: lat, MMIOLatencyNs: res.Avg().Nanoseconds()}, nil
			},
		}
	}
	return runJobs(Options{Jobs: jobs}, runs)
}

// TableIRow describes one overhead entry of Table I.
type TableIRow struct {
	Overhead   string
	Type       string
	PacketType string
}

// TableI returns the protocol overhead model (Table I), read back from
// the live configuration rather than restated.
func TableI() []TableIRow {
	o := pcie.DefaultOverheads()
	n2, d2 := Gen2.EncodingOverhead()
	n3, d3 := Gen3.EncodingOverhead()
	return []TableIRow{
		{fmt.Sprintf("%dB", o.TLPHeader), "TLP header", "TLP"},
		{fmt.Sprintf("%dB", o.SeqNum), "sequence number appended by data link layer", "TLP"},
		{fmt.Sprintf("%dB", o.LCRC), "Link CRC appended by data link layer", "TLP"},
		{fmt.Sprintf("%dB", o.Framing), "Framing symbols appended by Physical Layer", "TLP and DLLP"},
		{fmt.Sprintf("%d/%d-%d/%d", d2, n2, d3, n3), "Overhead caused by 8b/10b or 128b/130b encoding", "TLP and DLLP"},
	}
}

// ErrPoint is one error-injection scenario's measurement: a dd run on
// the disk path with a FaultPlan armed on the disk link.
type ErrPoint struct {
	Scenario string
	Gbps     float64
	Requests int
	// Errored counts dd requests answered by error completions
	// (completion timeout / device error) instead of data.
	Errored    int
	ReplayPct  float64
	TimeoutPct float64
	BadDLLPs   uint64
	Dropped    uint64
	Retrains   uint64
	// CompletionTimeouts counts error completions the root complex
	// synthesized for requests stranded on the dead fabric.
	CompletionTimeouts uint64
	LinkDead           bool
	// ReqLat summarizes the dd per-request latency distribution; under
	// faults the tail shows the replay/timeout cost directly.
	ReqLat LatencySummary
}

// ErrFigure is the error-containment sweep (`ddbench -fig err`).
type ErrFigure struct {
	Title  string
	Points []ErrPoint
}

// RunFigErr sweeps dd over increasingly hostile disk links: stochastic
// TLP/DLLP corruption and wire drops at several per-packet rates, a
// transient surprise-down window that retrains, and a permanently dead
// link that the completion-timeout machinery must contain. Every plan
// is seeded, so the sweep replays bit-identically.
func RunFigErr(opt Options) (ErrFigure, error) {
	opt = opt.normalize()
	bytes := opt.blockBytes(opt.BlockMB[0])
	base := contained(opt.config())

	// Place link-down windows mid-transfer, after dd's request stream
	// starts.
	end, err := bootEnd(validation(0), base)
	if err != nil {
		return ErrFigure{}, err
	}
	midStream := end + base.DD.StartupOverhead + 2*sim.Millisecond

	stochastic := func(rate float64) *fault.Plan {
		r := fault.Rates{TLPCorrupt: rate, DLLPCorrupt: rate, Drop: rate / 2}
		return &fault.Plan{Seed: 42, Up: fault.Profile{Rates: r}, Down: fault.Profile{Rates: r}}
	}
	scenarios := []struct {
		label string
		plan  *fault.Plan
	}{
		{"clean", nil},
		{"p=1e-4", stochastic(1e-4)},
		{"p=1e-3", stochastic(1e-3)},
		{"p=1e-2", stochastic(1e-2)},
		{"p=5e-2", stochastic(5e-2)},
		{"down50us", &fault.Plan{
			Windows:        []fault.Window{{At: midStream, Duration: 50 * sim.Microsecond}},
			RetrainLatency: 20 * sim.Microsecond,
		}},
		{"dead", &fault.Plan{
			Windows: []fault.Window{{At: midStream, Duration: 0}},
		}},
	}
	jobs := make([]job[ErrPoint], len(scenarios))
	for k, sc := range scenarios {
		jobs[k] = errJob(sc.label, withDiskFault(base, sc.plan), bytes)
	}
	points, err := runJobs(opt, jobs)
	if err != nil {
		return ErrFigure{}, err
	}
	return ErrFigure{Title: "dd under disk-link fault injection", Points: points}, nil
}

// contained arms the containment mechanisms an error-exploration run
// needs — RC completion timeout, driver command watchdog, device DMA
// timeout: without them a dead link is a simulator hang, not a data
// point.
func contained(cfg Config) Config {
	cfg.CompletionTimeout = 100 * sim.Microsecond
	cfg.DiskCmdTimeout = 2 * sim.Millisecond
	cfg.DiskDMATimeout = 500 * sim.Microsecond
	return cfg
}

// errJob is one faulted dd run on the validation platform, drained of
// the stragglers a dead link strands, measured as an ErrPoint.
func errJob(label string, cfg Config, bytes uint64) job[ErrPoint] {
	return job[ErrPoint]{label: label, spec: validation(0), cfg: cfg,
		run: func(sys *System) (ErrPoint, error) {
			res, err := sys.RunDD(bytes)
			if err != nil {
				return ErrPoint{}, err
			}
			sys.Eng.Run()
			return errPoint(label, sys, res), nil
		}}
}

// errPoint gathers one fault scenario's measurement from a finished
// platform.
func errPoint(label string, sys *System, res DDResult) ErrPoint {
	l := sys.LinkByName(diskLinkName).Link
	up, down := l.Up().Stats(), l.Down().Stats()
	ctos, _ := sys.RC.CompletionTimeouts()
	return ErrPoint{
		Scenario:           label,
		Gbps:               res.ThroughputGbps(),
		Requests:           res.Requests,
		Errored:            res.Errors,
		ReplayPct:          max(down.ReplayRate(), up.ReplayRate()) * 100,
		TimeoutPct:         max(down.TimeoutRate(), up.TimeoutRate()) * 100,
		BadDLLPs:           up.BadDLLPs + down.BadDLLPs,
		Dropped:            up.Dropped + down.Dropped,
		Retrains:           l.Retrains(),
		CompletionTimeouts: ctos,
		LinkDead:           l.Dead(),
		ReqLat:             res.ReqLat,
	}
}

// figFCPropDelay is the per-direction propagation delay of the credit
// sweep's links: a long (cabled/retimed) fabric whose bandwidth-delay
// product takes several completions in flight to fill.
const figFCPropDelay = 500 * Nanosecond

// FCPoint is one credit configuration's measurement: a dd run on the
// disk path with the completion header-credit pool capped at Credits
// (0 = infinite, the legacy refusal-only link).
type FCPoint struct {
	// Credits is the per-link completion header-credit pool ("inf"
	// renders the legacy infinite pool).
	Credits int
	Gbps    float64
	// CplStalls counts completion TLPs refused admission for lack of
	// credits, summed over the two interfaces that carry DMA
	// completions toward the disk.
	CplStalls uint64
	// UpdateFCs counts credit-return DLLPs across the disk DMA path.
	UpdateFCs uint64
	// ReqLat summarizes the dd per-request latency distribution; credit
	// starvation stretches the tail before throughput collapses.
	ReqLat LatencySummary
}

// CreditsLabel renders the credit count for tables.
func (p FCPoint) CreditsLabel() string {
	if p.Credits == 0 {
		return "inf"
	}
	return fmt.Sprintf("%d", p.Credits)
}

// FCFigure is the flow-control credit sweep (`ddbench -fig fc`).
type FCFigure struct {
	Title   string
	BlockMB int
	Points  []FCPoint
}

// RunFigFC sweeps a dd write against a shrinking completion
// header-credit pool on every link, reproducing the Fig 9(d)-style knee
// with credit-based flow control instead of port-buffer refusal. The
// write direction makes completions the data stream: the disk DMA-reads
// the user buffer, so every 64-byte chunk returns as a read completion
// over the root-complex -> switch -> disk path, and capping Cpl credits
// throttles the transfer exactly where the paper's port buffers did.
// (A dd read moves its data in posted writes whose payload-free
// acknowledgment completions never saturate even one header credit.)
// The links carry figFCPropDelay of propagation delay — a cabled or
// retimed fabric — so each link's bandwidth-delay product needs several
// completions in flight, and the throughput collapses linearly once the
// advertised pool drops below it. Credits 0 runs the same long link
// with the legacy infinite-credit protocol as the baseline.
func RunFigFC(opt Options) (FCFigure, error) {
	opt = opt.normalize()
	mb := opt.BlockMB[0]
	bytes := opt.blockBytes(mb)
	sweep := []int{0, 32, 16, 8, 4, 2, 1}

	jobs := make([]job[FCPoint], len(sweep))
	for k, credits := range sweep {
		jobs[k] = job[FCPoint]{
			label: fmt.Sprintf("fc=%d@%dMB", credits, mb),
			spec:  validation(0),
			cfg:   longLinks(opt.config(), credits),
			run: func(sys *System) (FCPoint, error) {
				res, err := sys.RunDDWrite(bytes)
				if err != nil {
					return FCPoint{}, err
				}
				// DMA read completions reach the disk across the uplink (RC
				// -> switch) and the disk link (switch -> disk); their
				// transmit sides are where credit starvation stalls show.
				disk, up := sys.LinkByName(diskLinkName).Link, sys.LinkByName(uplinkName).Link
				return FCPoint{
					Credits:   credits,
					Gbps:      res.ThroughputGbps(),
					CplStalls: disk.Up().Stats().FCStallsCpl + up.Up().Stats().FCStallsCpl,
					UpdateFCs: disk.Up().Stats().UpdateFCTx + disk.Down().Stats().UpdateFCTx +
						up.Up().Stats().UpdateFCTx + up.Down().Stats().UpdateFCTx,
					ReqLat: res.ReqLat,
				}, nil
			},
		}
	}
	points, err := runJobs(opt, jobs)
	if err != nil {
		return FCFigure{}, err
	}
	return FCFigure{Title: "dd under completion-credit starvation", BlockMB: mb, Points: points}, nil
}

// longLinks gives every link figFCPropDelay of propagation delay and, for
// credits > 0, a completion header-credit pool of that size (0 keeps the
// legacy infinite-credit protocol).
func longLinks(cfg Config, credits int) Config {
	cfg.PropDelay = figFCPropDelay
	if credits > 0 {
		cfg.Credits = pcie.CreditConfig{CplHdr: credits}
	}
	return cfg
}

// Format renders the credit sweep as an aligned text table.
func (f FCFigure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "figfc — %s (%d MB blocks)\n", f.Title, f.BlockMB)
	fmt.Fprintf(&b, "%-10s %8s %11s %10s %10s %10s\n",
		"cpl_hdr", "gbps", "cpl_stalls", "updatefc", "p50(us)", "p99(us)")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%-10s %8.3f %11d %10d %10.1f %10.1f\n",
			p.CreditsLabel(), p.Gbps, p.CplStalls, p.UpdateFCs,
			usOf(p.ReqLat.P50), usOf(p.ReqLat.P99))
	}
	return b.String()
}

// CSV renders the credit sweep as comma-separated values.
func (f FCFigure) CSV() string {
	var b strings.Builder
	b.WriteString("figure,cpl_hdr_credits,block_mb,gbps,cpl_stalls,updatefc_dllps,req_p50_us,req_p95_us,req_p99_us,req_max_us\n")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "figfc,%s,%d,%.4f,%d,%d,%.2f,%.2f,%.2f,%.2f\n",
			p.CreditsLabel(), f.BlockMB, p.Gbps, p.CplStalls, p.UpdateFCs,
			usOf(p.ReqLat.P50), usOf(p.ReqLat.P95), usOf(p.ReqLat.P99), usOf(p.ReqLat.Max))
	}
	return b.String()
}

// LatAttr is one run's per-segment latency attribution: for every
// instrumented segment, the total simulated time TLPs spent in it
// (the seg.* histogram sums), plus the per-segment share of the total.
type LatAttr struct {
	Label string
	Gbps  float64
	// SegTicks maps segment name ("wire", "fc-stall", ...) to the
	// summed ticks attributed to it.
	SegTicks map[string]uint64
	// Total is the sum over all segments.
	Total uint64
}

// Share returns the fraction (0..1) of the run's attributed time spent
// in the named segment.
func (a LatAttr) Share(seg string) float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.SegTicks[seg]) / float64(a.Total)
}

// LatFigure is the latency-attribution comparison (`ddbench -fig lat`):
// where does a microsecond go on a healthy link versus a
// credit-starved one.
type LatFigure struct {
	Title    string
	BlockMB  int
	Baseline LatAttr
	Starved  LatAttr
}

// latStarvedCredits is the completion header-credit pool of the
// starved run: small enough that completions queue for credits on the
// long link, but not so small that throughput collapses entirely.
const latStarvedCredits = 2

// RunFigLat runs the same dd write twice over the long
// (figFCPropDelay) fabric — once with the legacy infinite-credit links
// and once with the completion header-credit pool capped at
// latStarvedCredits — with span attribution armed, and reports how
// the per-segment latency attribution shifts. On the healthy link the
// time lives in wire/PropDelay and completion turnaround; starving
// the credits moves it into fc-stall. This is the "where does a
// microsecond go" figure: the same question the paper's breakdown
// answers, asked of the simulator's own attribution machinery.
func RunFigLat(opt Options) (LatFigure, error) {
	opt = opt.normalize()
	mb := opt.BlockMB[0]
	bytes := opt.blockBytes(mb)

	runs := []struct {
		label   string
		credits int
	}{
		{"baseline", 0},
		{fmt.Sprintf("fc=%d", latStarvedCredits), latStarvedCredits},
	}
	jobs := make([]job[LatAttr], len(runs))
	for k, r := range runs {
		jobs[k] = job[LatAttr]{
			label: fmt.Sprintf("lat-%s@%dMB", r.label, mb),
			spec:  validation(0),
			cfg:   longLinks(opt.config(), r.credits),
			run: func(sys *System) (LatAttr, error) {
				// Attribution needs only the seg.* histograms, not span
				// trace events, so arm spans directly; an Observe hook may
				// still install a tracer on top.
				sys.Eng.ArmSpans()
				res, err := sys.RunDDWrite(bytes)
				if err != nil {
					return LatAttr{}, err
				}
				a := LatAttr{Label: r.label, Gbps: res.ThroughputGbps(), SegTicks: make(map[string]uint64)}
				reg := sys.Eng.Stats()
				for _, name := range reg.HistogramNames() {
					if !strings.HasPrefix(name, "seg.") {
						continue
					}
					sum := reg.FindHistogram(name).Sum()
					a.SegTicks[strings.TrimPrefix(name, "seg.")] = sum
					a.Total += sum
				}
				return a, nil
			},
		}
	}
	attrs, err := runJobs(opt, jobs)
	if err != nil {
		return LatFigure{}, err
	}
	return LatFigure{
		Title:    "per-segment latency attribution, healthy vs credit-starved",
		BlockMB:  mb,
		Baseline: attrs[0],
		Starved:  attrs[1],
	}, nil
}

// segNames returns the union of both runs' segment names, sorted.
func (f LatFigure) segNames() []string {
	seen := make(map[string]bool)
	for _, a := range []LatAttr{f.Baseline, f.Starved} {
		for n := range a.SegTicks {
			seen[n] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Format renders the attribution comparison as an aligned text table.
func (f LatFigure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "figlat — %s (%d MB blocks)\n", f.Title, f.BlockMB)
	fmt.Fprintf(&b, "%-16s %14s %7s %14s %7s\n",
		"segment", "base(us)", "base%", "starved(us)", "strv%")
	for _, n := range f.segNames() {
		fmt.Fprintf(&b, "%-16s %14.1f %6.1f%% %14.1f %6.1f%%\n",
			n,
			usOf(sim.Tick(f.Baseline.SegTicks[n])), 100*f.Baseline.Share(n),
			usOf(sim.Tick(f.Starved.SegTicks[n])), 100*f.Starved.Share(n))
	}
	fmt.Fprintf(&b, "%-16s %14.1f %7s %14.1f\n", "total",
		usOf(sim.Tick(f.Baseline.Total)), "", usOf(sim.Tick(f.Starved.Total)))
	fmt.Fprintf(&b, "throughput: baseline %.3f Gbps, starved %.3f Gbps\n",
		f.Baseline.Gbps, f.Starved.Gbps)
	return b.String()
}

// CSV renders the attribution comparison as comma-separated values.
func (f LatFigure) CSV() string {
	var b strings.Builder
	b.WriteString("figure,segment,baseline_us,baseline_share,starved_us,starved_share\n")
	for _, n := range f.segNames() {
		fmt.Fprintf(&b, "figlat,%s,%.2f,%.4f,%.2f,%.4f\n",
			n,
			usOf(sim.Tick(f.Baseline.SegTicks[n])), f.Baseline.Share(n),
			usOf(sim.Tick(f.Starved.SegTicks[n])), f.Starved.Share(n))
	}
	return b.String()
}

// CampaignResult is a Monte-Carlo fault campaign: the same faulted dd
// workload run under K different injection seeds, with the
// error-recovery outcome distribution across seeds.
type CampaignResult struct {
	Seeds int
	// Rate is the per-transmission TLP/DLLP corruption probability
	// (drops are injected at half this rate), identical in every run;
	// only the RNG seed varies.
	Rate float64
	// Points holds one measurement per seed, in seed order.
	Points []ErrPoint

	// Distribution across seeds.
	GbpsMin, GbpsMedian, GbpsMax float64
	// ErroredRuns counts runs where at least one dd request came back
	// as an error completion; DeadRuns counts runs that ended with the
	// disk link down for good.
	ErroredRuns int
	DeadRuns    int
	// Retrains and CompletionTimeouts are totals across all runs.
	Retrains           uint64
	CompletionTimeouts uint64
}

// RunFaultCampaign runs a Monte-Carlo campaign: seeds independent dd
// runs, each with a stochastic corruption/drop plan on the disk link
// seeded differently, fanned across opt.Jobs workers. Where RunFigErr
// answers "what does each failure mode cost", the campaign answers
// "how wide is the outcome spread under one failure rate" — the
// tail-risk question a single seeded run cannot.
func RunFaultCampaign(seeds int, rate float64, opt Options) (CampaignResult, error) {
	if seeds <= 0 {
		return CampaignResult{}, fmt.Errorf("campaign: seeds = %d", seeds)
	}
	opt = opt.normalize()
	bytes := opt.blockBytes(opt.BlockMB[0])
	base := contained(opt.config())
	jobs := make([]job[ErrPoint], seeds)
	for k := range jobs {
		r := fault.Rates{TLPCorrupt: rate, DLLPCorrupt: rate, Drop: rate / 2}
		plan := &fault.Plan{Seed: uint64(k + 1), Up: fault.Profile{Rates: r}, Down: fault.Profile{Rates: r}}
		jobs[k] = errJob(fmt.Sprintf("seed%03d", k), withDiskFault(base, plan), bytes)
	}
	points, err := runJobs(opt, jobs)
	if err != nil {
		return CampaignResult{}, err
	}

	res := CampaignResult{Seeds: seeds, Rate: rate, Points: points}
	gbps := make([]float64, seeds)
	for i, p := range res.Points {
		gbps[i] = p.Gbps
		if p.Errored > 0 {
			res.ErroredRuns++
		}
		if p.LinkDead {
			res.DeadRuns++
		}
		res.Retrains += p.Retrains
		res.CompletionTimeouts += p.CompletionTimeouts
	}
	sort.Float64s(gbps)
	res.GbpsMin = gbps[0]
	res.GbpsMedian = gbps[seeds/2]
	res.GbpsMax = gbps[seeds-1]
	return res, nil
}

// Format renders the campaign as a per-seed table plus the summary.
func (c CampaignResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault campaign — %d seeds at p=%g on the disk link\n", c.Seeds, c.Rate)
	fmt.Fprintf(&b, "%-10s %8s %9s %10s %9s %8s %9s %5s %5s\n",
		"seed", "gbps", "errored", "replay%", "badDLLP", "dropped", "retrains", "CTO", "dead")
	for _, p := range c.Points {
		fmt.Fprintf(&b, "%-10s %8.3f %4d/%-4d %10.2f %9d %8d %9d %5d %5v\n",
			p.Scenario, p.Gbps, p.Errored, p.Requests, p.ReplayPct,
			p.BadDLLPs, p.Dropped, p.Retrains, p.CompletionTimeouts, p.LinkDead)
	}
	fmt.Fprintf(&b, "gbps min/median/max: %.3f / %.3f / %.3f\n", c.GbpsMin, c.GbpsMedian, c.GbpsMax)
	fmt.Fprintf(&b, "runs with errored requests: %d/%d; dead links: %d/%d; retrains: %d; completion timeouts: %d\n",
		c.ErroredRuns, c.Seeds, c.DeadRuns, c.Seeds, c.Retrains, c.CompletionTimeouts)
	return b.String()
}

// DegradePoint is one scenario of the adaptive-degradation staircase.
type DegradePoint struct {
	Scenario string
	Gbps     float64
	Requests int
	Errored  int
	// Downtrains/Uptrains count the degradation and upgrade retrains
	// the disk link took during the run.
	Downtrains uint64
	Uptrains   uint64
	// Level, Gen and Width are the disk link's final ladder position.
	Level  int
	Gen    Generation
	Width  int
	ReqLat LatencySummary
}

// DegradeFigure is the adaptive-degradation sweep (`ddbench -fig
// degrade`): dd throughput stepping down the (Gen, Width) ladder and
// recovering through upgrade retrains.
type DegradeFigure struct {
	Title  string
	Points []DegradePoint
}

// RunFigDegrade regenerates the degradation staircase on an x4 Gen2
// disk link: the full link, each of the three ladder levels below it
// (x2, x1, x1@Gen1) held by forced downtrains with upgrade retrains
// pushed past the run, and a "recovered" scenario where the same fully
// degraded link upgrade-retrains back to full speed early in the
// transfer. Every scenario is deterministic — the downtrain schedule
// is scripted, not stochastic.
func RunFigDegrade(opt Options) (DegradeFigure, error) {
	opt = opt.normalize()
	bytes := opt.blockBytes(opt.BlockMB[len(opt.BlockMB)-1])
	base := opt.config()
	// A wide disk link gives the ladder three steps: x4 -> x2 -> x1 ->
	// x1 @ Gen1.
	spec := func() *TopoSpec {
		s := validation(0)
		s.Link(diskLinkName).Width = 4
		return s
	}

	// Hold each degraded level for the whole run: the first upgrade
	// attempt lands far beyond any workload here.
	hold := DefaultDegradeConfig()
	hold.UpgradeBackoff = 10000 * sim.Millisecond
	hold.MaxUpgradeBackoff = hold.UpgradeBackoff
	// The recovering link retries quickly so the upgrade ladder
	// completes early in the transfer.
	recov := DefaultDegradeConfig()
	recov.UpgradeBackoff = 50 * sim.Microsecond
	recov.MaxUpgradeBackoff = 400 * sim.Microsecond

	// Downtrains are scheduled right after boot, spaced wider than the
	// retrain latency so none lands mid-retrain; boot is deterministic.
	end, err := bootEnd(spec(), base)
	if err != nil {
		return DegradeFigure{}, err
	}
	downs := func(n int) []sim.Tick {
		out := make([]sim.Tick, n)
		for i := range out {
			out[i] = end + sim.Tick(i+1)*50*sim.Microsecond
		}
		return out
	}
	scenarios := []struct {
		label   string
		degrade DegradeConfig
		downs   int
	}{
		{"full", hold, 0},
		{"down1", hold, 1},
		{"down2", hold, 2},
		{"down3", hold, 3},
		{"recovered", recov, 3},
	}

	jobs := make([]job[DegradePoint], len(scenarios))
	for k, sc := range scenarios {
		cfg := base
		deg := sc.degrade
		cfg.Degrade = &deg
		if sc.downs > 0 {
			cfg = withDiskFault(cfg, &fault.Plan{Downtrains: downs(sc.downs)})
		}
		jobs[k] = job[DegradePoint]{label: sc.label, spec: spec(), cfg: cfg,
			run: func(sys *System) (DegradePoint, error) {
				res, err := sys.RunDD(bytes)
				if err != nil {
					return DegradePoint{}, err
				}
				// Read the ladder position as dd finishes — draining the
				// engine below fires the held upgrade timers and climbs the
				// link back to level 0.
				l := sys.LinkByName(diskLinkName).Link
				p := DegradePoint{
					Scenario:   sc.label,
					Gbps:       res.ThroughputGbps(),
					Requests:   res.Requests,
					Errored:    res.Errors,
					Downtrains: l.Downtrains(),
					Uptrains:   l.Uptrains(),
					Level:      l.DegradeLevel(),
					Gen:        l.CurrentGen(),
					Width:      l.CurrentWidth(),
					ReqLat:     res.ReqLat,
				}
				sys.Eng.Run()
				return p, nil
			}}
	}
	points, err := runJobs(opt, jobs)
	if err != nil {
		return DegradeFigure{}, err
	}
	return DegradeFigure{Title: "dd through adaptive link degradation (x4 Gen2 disk link)", Points: points}, nil
}

// Format renders the degradation staircase as an aligned text table.
func (f DegradeFigure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "figdegrade — %s\n", f.Title)
	fmt.Fprintf(&b, "%-10s %8s %9s %6s %5s %6s %6s %6s %10s %10s\n",
		"scenario", "gbps", "errored", "down", "up", "level", "gen", "width", "p50(us)", "p99(us)")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%-10s %8.3f %4d/%-4d %6d %5d %6d %6v %5dx %10.1f %10.1f\n",
			p.Scenario, p.Gbps, p.Errored, p.Requests, p.Downtrains, p.Uptrains,
			p.Level, p.Gen, p.Width, usOf(p.ReqLat.P50), usOf(p.ReqLat.P99))
	}
	return b.String()
}

// CSV renders the degradation staircase as comma-separated values.
func (f DegradeFigure) CSV() string {
	var b strings.Builder
	b.WriteString("figure,scenario,gbps,requests,errored,downtrains,uptrains,level,gen,width,req_p50_us,req_p99_us\n")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "figdegrade,%s,%.4f,%d,%d,%d,%d,%d,%d,%d,%.2f,%.2f\n",
			p.Scenario, p.Gbps, p.Requests, p.Errored, p.Downtrains, p.Uptrains,
			p.Level, int(p.Gen), p.Width, usOf(p.ReqLat.P50), usOf(p.ReqLat.P99))
	}
	return b.String()
}

// HotplugPoint is one seed of a surprise hot-plug campaign.
type HotplugPoint struct {
	Scenario string
	Gbps     float64
	Requests int
	Errored  int
	// Permanent marks a removal with no re-insertion.
	Permanent bool
	Removals  uint64
	Reinserts uint64
	// DPC/kernel recovery outcome.
	Triggers  uint64
	Recovered uint64
	Abandoned uint64
	ReqLat    LatencySummary
}

// HotplugCampaignResult is a surprise hot-plug campaign: the same dd
// workload run under K different removal/re-insertion schedules with
// DPC containment and the kernel recovery driver armed.
type HotplugCampaignResult struct {
	Seeds  int
	Points []HotplugPoint

	// Distribution and outcome totals across seeds.
	GbpsMin, GbpsMedian, GbpsMax float64
	RecoveredRuns                int
	AbandonedRuns                int
	ErroredRuns                  int
}

// RunHotplugCampaign runs K dd workloads, each with the disk yanked at
// a schedule-dependent instant mid-transfer; three of every four
// schedules re-seat the card and must end recovered (the kernel driver
// re-enables the slot and replays the boot-time configuration), the
// fourth is a permanent removal that must end contained and abandoned.
// Every run must complete — a single hung dd fails the campaign.
func RunHotplugCampaign(seeds int, opt Options) (HotplugCampaignResult, error) {
	if seeds <= 0 {
		return HotplugCampaignResult{}, fmt.Errorf("hotplug campaign: seeds = %d", seeds)
	}
	opt = opt.normalize()
	bytes := opt.blockBytes(opt.BlockMB[0])
	base := contained(opt.config())
	base.EnableDPC = true

	end, err := bootEnd(validation(0), base)
	if err != nil {
		return HotplugCampaignResult{}, err
	}
	streamStart := end + base.DD.StartupOverhead

	jobs := make([]job[HotplugPoint], seeds)
	for k := range jobs {
		label := fmt.Sprintf("seed%03d", k)
		// Deterministic per-seed schedule: the removal instant walks the
		// transfer window, every fourth removal is permanent.
		h := fault.Hotplug{RemoveAt: streamStart + sim.Tick(k*613%1500)*sim.Microsecond}
		permanent := k%4 == 3
		if !permanent {
			h.ReinsertAfter = sim.Tick(200+k*97%400) * sim.Microsecond
		}
		jobs[k] = job[HotplugPoint]{label: label, spec: validation(0),
			cfg: withDiskFault(base, &fault.Plan{Hotplugs: []fault.Hotplug{h}}),
			run: func(sys *System) (HotplugPoint, error) {
				dd, err := sys.RunDD(bytes)
				if err != nil {
					return HotplugPoint{}, err
				}
				sys.Eng.Run() // recovery polling and stragglers
				triggers, recovered, abandoned := sys.Recovery.Counts()
				l := sys.LinkByName(diskLinkName).Link
				return HotplugPoint{
					Scenario:  label,
					Gbps:      dd.ThroughputGbps(),
					Requests:  dd.Requests,
					Errored:   dd.Errors,
					Permanent: permanent,
					Removals:  l.Removals(),
					Reinserts: l.Reinserts(),
					Triggers:  triggers,
					Recovered: recovered,
					Abandoned: abandoned,
					ReqLat:    dd.ReqLat,
				}, nil
			}}
	}
	points, err := runJobs(opt, jobs)
	if err != nil {
		return HotplugCampaignResult{}, err
	}

	res := HotplugCampaignResult{Seeds: seeds, Points: points}
	gbps := make([]float64, seeds)
	for i, p := range res.Points {
		gbps[i] = p.Gbps
		if p.Recovered > 0 {
			res.RecoveredRuns++
		}
		if p.Abandoned > 0 {
			res.AbandonedRuns++
		}
		if p.Errored > 0 {
			res.ErroredRuns++
		}
	}
	sort.Float64s(gbps)
	res.GbpsMin = gbps[0]
	res.GbpsMedian = gbps[seeds/2]
	res.GbpsMax = gbps[seeds-1]
	return res, nil
}

// Format renders the hot-plug campaign as a per-seed table plus the
// summary.
func (c HotplugCampaignResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hotplug campaign — %d surprise-removal schedules on the disk link\n", c.Seeds)
	fmt.Fprintf(&b, "%-10s %8s %9s %10s %8s %10s %9s %10s %10s\n",
		"seed", "gbps", "errored", "permanent", "removals", "reinserts", "triggers", "recovered", "abandoned")
	for _, p := range c.Points {
		fmt.Fprintf(&b, "%-10s %8.3f %4d/%-4d %10v %8d %10d %9d %10d %10d\n",
			p.Scenario, p.Gbps, p.Errored, p.Requests, p.Permanent,
			p.Removals, p.Reinserts, p.Triggers, p.Recovered, p.Abandoned)
	}
	fmt.Fprintf(&b, "gbps min/median/max: %.3f / %.3f / %.3f\n", c.GbpsMin, c.GbpsMedian, c.GbpsMax)
	fmt.Fprintf(&b, "recovered: %d/%d; abandoned: %d/%d; runs with errors: %d/%d; hung: 0\n",
		c.RecoveredRuns, c.Seeds, c.AbandonedRuns, c.Seeds, c.ErroredRuns, c.Seeds)
	return b.String()
}

// usOf converts a tick count (picoseconds) to microseconds for tables.
func usOf(t sim.Tick) float64 { return float64(t) / 1e6 }

// Format renders the error sweep as an aligned text table.
func (f ErrFigure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "figerr — %s\n", f.Title)
	fmt.Fprintf(&b, "%-10s %8s %9s %10s %11s %9s %8s %9s %5s %5s %10s %10s\n",
		"scenario", "gbps", "errored", "replay%", "timeout%", "badDLLP", "dropped", "retrains", "CTO", "dead",
		"p50(us)", "p99(us)")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%-10s %8.3f %4d/%-4d %10.2f %11.2f %9d %8d %9d %5d %5v %10.1f %10.1f\n",
			p.Scenario, p.Gbps, p.Errored, p.Requests, p.ReplayPct, p.TimeoutPct,
			p.BadDLLPs, p.Dropped, p.Retrains, p.CompletionTimeouts, p.LinkDead,
			usOf(p.ReqLat.P50), usOf(p.ReqLat.P99))
	}
	return b.String()
}

// CSV renders the error sweep as comma-separated values.
func (f ErrFigure) CSV() string {
	var b strings.Builder
	b.WriteString("figure,scenario,gbps,requests,errored,replay_pct,timeout_pct,bad_dllps,dropped,retrains,completion_timeouts,link_dead,req_p50_us,req_p95_us,req_p99_us,req_max_us\n")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "figerr,%s,%.4f,%d,%d,%.2f,%.2f,%d,%d,%d,%d,%v,%.2f,%.2f,%.2f,%.2f\n",
			p.Scenario, p.Gbps, p.Requests, p.Errored, p.ReplayPct, p.TimeoutPct,
			p.BadDLLPs, p.Dropped, p.Retrains, p.CompletionTimeouts, p.LinkDead,
			usOf(p.ReqLat.P50), usOf(p.ReqLat.P95), usOf(p.ReqLat.P99), usOf(p.ReqLat.Max))
	}
	return b.String()
}

// Format renders the figure as an aligned text table.
func (f Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	if len(f.Series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-10s", "block(MB)")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%12s", s.Label)
	}
	b.WriteString("\n")
	for i, p := range f.Series[0].Points {
		fmt.Fprintf(&b, "%-10d", p.X)
		for _, s := range f.Series {
			fmt.Fprintf(&b, "%12.3f", s.Points[i].Gbps)
		}
		b.WriteString("\n")
	}
	// Protocol-health footer (last block size), where meaningful.
	var health []string
	for _, s := range f.Series {
		last := s.Points[len(s.Points)-1]
		if last.ReplayPct > 0.05 || last.TimeoutPct > 0.05 {
			health = append(health, fmt.Sprintf("%s: replay %.1f%%, timeout %.1f%%",
				s.Label, last.ReplayPct, last.TimeoutPct))
		}
	}
	if len(health) > 0 {
		fmt.Fprintf(&b, "congested upstream link: %s\n", strings.Join(health, "; "))
	}
	// Request-latency sub-table (largest block size): the distribution
	// tail is where congestion shows before throughput collapses.
	hasLat := false
	for _, s := range f.Series {
		if s.Points[len(s.Points)-1].ReqLat.Max > 0 {
			hasLat = true
		}
	}
	if hasLat {
		fmt.Fprintf(&b, "request latency at %d MB (µs):\n", f.Series[0].Points[len(f.Series[0].Points)-1].X)
		fmt.Fprintf(&b, "  %-10s %10s %10s %10s %10s\n", "series", "p50", "p95", "p99", "max")
		for _, s := range f.Series {
			l := s.Points[len(s.Points)-1].ReqLat
			if l.Max == 0 {
				continue // analytical series (phys) has no per-request model
			}
			fmt.Fprintf(&b, "  %-10s %10.1f %10.1f %10.1f %10.1f\n",
				s.Label, usOf(l.P50), usOf(l.P95), usOf(l.P99), usOf(l.Max))
		}
	}
	return b.String()
}

// CSV renders the figure as comma-separated values with one row per
// (series, block size) pair.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString("figure,series,block_mb,gbps,replay_pct,timeout_pct,req_p50_us,req_p95_us,req_p99_us,req_max_us\n")
	for _, s := range f.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%s,%d,%.4f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f\n",
				f.ID, s.Label, p.X, p.Gbps, p.ReplayPct, p.TimeoutPct,
				usOf(p.ReqLat.P50), usOf(p.ReqLat.P95), usOf(p.ReqLat.P99), usOf(p.ReqLat.Max))
		}
	}
	return b.String()
}
