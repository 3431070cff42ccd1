package pciesim

import (
	"bytes"
	"fmt"
	"strings"

	"pciesim/internal/sim"
	"pciesim/internal/topo"
	"pciesim/internal/workload"
)

// WLPoint is one arrival-process measurement of the workload figure:
// the same NIC receive traffic offered by a Poisson and a bursty
// generator at identical mean rate.
type WLPoint struct {
	// Label names the generator ("poisson", "bursty").
	Label string
	// Ops and Dropped are delivered and shed frame counts.
	Ops, Dropped int
	// MeanGapUs is the offered mean inter-arrival time.
	MeanGapUs float64
	// GoodputGbps is delivered payload over the flow span.
	GoodputGbps float64
	// Lat is the per-frame latency (completion minus scheduled
	// arrival, so queueing behind a burst counts).
	Lat LatencySummary
}

// WLMatrixRow is one contention-matrix measurement: n identical
// random-read flows pinned to the disks of a fanout topology.
type WLMatrixRow struct {
	// Flows is the concurrent flow count.
	Flows int
	// PerFlowGbps is each flow's goodput, in topology order.
	PerFlowGbps []float64
	// AggregateGbps sums them.
	AggregateGbps float64
	// Fairness is max/min per-flow goodput (1.0 = perfectly fair).
	Fairness float64
	// P99Us is each flow's p99 latency in microseconds.
	P99Us []float64
}

// WLFigure is the workload-engine figure: Poisson-vs-bursty tail
// latency at equal offered load, the flow-count contention matrix, and
// the capture/replay lockdown verdict.
type WLFigure struct {
	Title  string
	Points []WLPoint
	Matrix []WLMatrixRow
	// ReplayIdentical reports whether re-feeding the Poisson run's
	// captured trace through a fresh platform reproduced the original
	// stats dump byte-for-byte.
	ReplayIdentical bool
}

// Format renders the figure as aligned tables.
func (f WLFigure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%-10s %8s %8s %10s %10s %10s %10s %10s\n",
		"arrival", "ops", "dropped", "gap(us)", "Gb/s", "p50(us)", "p99(us)", "max(us)")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%-10s %8d %8d %10.1f %10.3f %10.1f %10.1f %10.1f\n",
			p.Label, p.Ops, p.Dropped, p.MeanGapUs, p.GoodputGbps,
			usOf(p.Lat.P50), usOf(p.Lat.P99), usOf(p.Lat.Max))
	}
	fmt.Fprintf(&b, "\ncontention matrix (random-read flows on switch:x4(disk*N)):\n")
	fmt.Fprintf(&b, "%-6s %12s %10s %10s  %s\n", "flows", "aggregate", "fairness", "p99(us)", "per-flow Gb/s")
	for _, m := range f.Matrix {
		maxP99 := 0.0
		for _, v := range m.P99Us {
			if v > maxP99 {
				maxP99 = v
			}
		}
		per := make([]string, len(m.PerFlowGbps))
		for i, g := range m.PerFlowGbps {
			per[i] = fmt.Sprintf("%.3f", g)
		}
		fmt.Fprintf(&b, "%-6d %12.3f %10.3f %10.1f  %s\n",
			m.Flows, m.AggregateGbps, m.Fairness, maxP99, strings.Join(per, " "))
	}
	fmt.Fprintf(&b, "\ntrace replay byte-identical: %v\n", f.ReplayIdentical)
	return b.String()
}

// CSV renders the figure as CSV (figwl rows for the arrival points,
// figwlmatrix rows for the contention matrix).
func (f WLFigure) CSV() string {
	var b strings.Builder
	b.WriteString("figwl,arrival,ops,dropped,gap_us,gbps,p50_us,p99_us,max_us\n")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "figwl,%s,%d,%d,%g,%g,%g,%g,%g\n",
			p.Label, p.Ops, p.Dropped, p.MeanGapUs, p.GoodputGbps,
			usOf(p.Lat.P50), usOf(p.Lat.P99), usOf(p.Lat.Max))
	}
	b.WriteString("figwlmatrix,flows,aggregate_gbps,fairness,max_p99_us\n")
	for _, m := range f.Matrix {
		maxP99 := 0.0
		for _, v := range m.P99Us {
			if v > maxP99 {
				maxP99 = v
			}
		}
		fmt.Fprintf(&b, "figwlmatrix,%d,%g,%g,%g\n", m.Flows, m.AggregateGbps, m.Fairness, maxP99)
	}
	fmt.Fprintf(&b, "figwlreplay,identical,%v\n", f.ReplayIdentical)
	return b.String()
}

// Workload-figure parameters: both NIC generators offer the same mean
// load (one 1500-byte frame per 8us, ~1.5 Gb/s against a ~3.3 Gb/s x1
// Gen2 receive path), the bursty one as 16-frame trains at 1us
// spacing. The matrix reads one 4 KiB sector per op per flow.
const (
	wlFrames    = 300
	wlFrameLen  = 1500
	wlFrameGap  = 12 * sim.Microsecond
	wlBurstLen  = 16
	wlBurstGap  = 1 * sim.Microsecond
	wlBlockOps  = 150
	wlBlockLen  = 4096
	wlBlockGap  = 25 * sim.Microsecond
	wlMatrixMax = 4
)

// wlNICFlow is the arrival-comparison flow spec on the validation
// topology's NIC.
func wlNICFlow(arrival workload.ArrivalKind) []workload.FlowSpec {
	return []workload.FlowSpec{{
		Endpoint: "nic",
		Op:       workload.OpRx,
		Arrival:  arrival,
		Ops:      wlFrames,
		Len:      wlFrameLen,
		MeanGap:  wlFrameGap,
		BurstLen: wlBurstLen,
		BurstGap: wlBurstGap,
		Seed:     1,
	}}
}

// wlMatrixFlows pins one random-read flow to each of n disks
// (disk0..disk<n-1> of a "switch:x4(disk*n)" spec), distinct seeds.
func wlMatrixFlows(n int) []workload.FlowSpec {
	flows := make([]workload.FlowSpec, n)
	for i := range flows {
		flows[i] = workload.FlowSpec{
			Endpoint: fmt.Sprintf("disk%d", i),
			Op:       workload.OpRead,
			Arrival:  workload.ArrivalPoisson,
			Ops:      wlBlockOps,
			Len:      wlBlockLen,
			MeanGap:  wlBlockGap,
			Seed:     uint64(11 + i),
		}
	}
	return flows
}

// wlOutcome carries a run's per-flow results plus its full stats dump,
// which the replay check compares byte-for-byte.
type wlOutcome struct {
	res  workload.Result
	dump []byte
}

// wlJob is one independent simulation of the workload figure: a fresh
// platform for spec (a canned name or topology grammar) executing tr,
// so a run is a function of (spec, trace) alone.
func wlJob(label, spec string, tr *workload.Trace) (job[wlOutcome], error) {
	ts, err := topo.Lookup(spec)
	if err != nil {
		return job[wlOutcome]{}, fmt.Errorf("%s: %w", label, err)
	}
	cfg := DefaultConfig()
	cfg.EnableMSI = true // exercise the e1000e MSI interrupt path
	return job[wlOutcome]{label: label, spec: ts, cfg: cfg, run: func(sys *System) (wlOutcome, error) {
		res, err := workload.Run(sys, tr, workload.RunConfig{})
		if err != nil {
			return wlOutcome{}, err
		}
		sys.Eng.Run() // drain stragglers so the dump is a fixed point
		var buf bytes.Buffer
		if err := sys.Eng.Stats().WriteJSON(&buf, uint64(sys.Eng.Now())); err != nil {
			return wlOutcome{}, err
		}
		return wlOutcome{res: res, dump: buf.Bytes()}, nil
	}}, nil
}

// RunFigWL runs the workload-engine figure: Poisson vs bursty ON/OFF
// NIC receive traffic at equal offered load on the validation
// topology, a 1/2/4-flow random-read contention matrix on fanout
// topologies, and a capture/replay byte-identity check on the Poisson
// run. Options.Jobs fans the six independent runs, which the Observe
// hooks see as poisson, bursty, matrix1, matrix2, matrix4 and replay;
// Scale and Par do not apply (the op counts are fixed).
func RunFigWL(opt Options) (WLFigure, error) {
	poisson, err := workload.Synthesize(wlNICFlow(workload.ArrivalPoisson))
	if err != nil {
		return WLFigure{}, err
	}
	bursty, err := workload.Synthesize(wlNICFlow(workload.ArrivalBursty))
	if err != nil {
		return WLFigure{}, err
	}
	// Capture/replay lockdown: encode the Poisson trace and parse it
	// back (the round trip a -wl-capture file takes); its run on a fresh
	// platform must reproduce the Poisson run's stats dump.
	replayed, err := workload.ParseString(poisson.EncodeString())
	if err != nil {
		return WLFigure{}, fmt.Errorf("replay parse: %w", err)
	}
	type run struct {
		label, spec string
		trace       *workload.Trace
	}
	runs := []run{{"poisson", "validation", poisson}, {"bursty", "validation", bursty}}
	for n := 1; n <= wlMatrixMax; n *= 2 {
		tr, err := workload.Synthesize(wlMatrixFlows(n))
		if err != nil {
			return WLFigure{}, err
		}
		runs = append(runs, run{fmt.Sprintf("matrix%d", n), fmt.Sprintf("switch:x4(disk*%d)", n), tr})
	}
	runs = append(runs, run{"replay", "validation", replayed})
	jobs := make([]job[wlOutcome], len(runs))
	for i, r := range runs {
		if jobs[i], err = wlJob(r.label, r.spec, r.trace); err != nil {
			return WLFigure{}, err
		}
	}
	outcomes, err := runJobs(opt, jobs)
	if err != nil {
		return WLFigure{}, err
	}

	fig := WLFigure{Title: "Workload engines — Poisson vs bursty at equal offered load"}
	for i := 0; i < 2; i++ {
		f := outcomes[i].res.Flows[0]
		fig.Points = append(fig.Points, WLPoint{
			Label:       runs[i].label,
			Ops:         f.Ops,
			Dropped:     f.Dropped,
			MeanGapUs:   usOf(wlFrameGap),
			GoodputGbps: f.GoodputGbps(),
			Lat:         f.Lat,
		})
	}
	for _, o := range outcomes[2 : len(outcomes)-1] {
		row := WLMatrixRow{Flows: len(o.res.Flows), Fairness: o.res.FairnessSpread()}
		for _, f := range o.res.Flows {
			row.PerFlowGbps = append(row.PerFlowGbps, f.GoodputGbps())
			row.AggregateGbps += f.GoodputGbps()
			row.P99Us = append(row.P99Us, usOf(f.Lat.P99))
		}
		fig.Matrix = append(fig.Matrix, row)
	}
	fig.ReplayIdentical = bytes.Equal(outcomes[len(outcomes)-1].dump, outcomes[0].dump)
	return fig, nil
}
