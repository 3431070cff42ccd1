package pciesim

import (
	"fmt"
	"strings"

	"pciesim/internal/topo"
)

// ScenarioRow is one measured metric of a topology scenario.
type ScenarioRow struct {
	Scenario string
	Metric   string
	Value    float64
	Unit     string
}

// ScenarioReport is the result of RunScenarios.
type ScenarioReport struct {
	Rows []ScenarioRow
}

// Format renders the report as an aligned table.
func (r ScenarioReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-28s %12s %s\n", "scenario", "metric", "value", "unit")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-28s %12.3f %s\n", row.Scenario, row.Metric, row.Value, row.Unit)
	}
	return b.String()
}

// CSV renders the report as CSV.
func (r ScenarioReport) CSV() string {
	var b strings.Builder
	b.WriteString("scenario,metric,value,unit\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%s,%g,%s\n", row.Scenario, row.Metric, row.Value, row.Unit)
	}
	return b.String()
}

// RunTopoSweep sweeps the block sizes of Options over an arbitrary
// topology (a canned scenario name or a spec string), running dd on
// every disk concurrently at each size. The result is a one-series
// Figure whose throughput is the aggregate across disks, so it drops
// into ddbench's existing table/CSV printers.
func RunTopoSweep(spec string, opt Options) (Figure, error) {
	opt = opt.normalize()
	ts, err := topo.Lookup(spec)
	if err != nil {
		return Figure{}, err
	}
	// Normalize once up front: afterwards the spec is read-only, so the
	// concurrent campaign runs below can share it.
	if err := ts.Normalize(); err != nil {
		return Figure{}, err
	}
	jobs := make([]job[Point], len(opt.BlockMB))
	for k, mb := range opt.BlockMB {
		jobs[k] = job[Point]{
			label: fmt.Sprintf("%s@%dMB", ts.Name, mb),
			spec:  ts,
			cfg:   opt.config(),
			run: func(sys *System) (Point, error) {
				res, err := sys.RunDDAll(opt.blockBytes(mb))
				if err != nil {
					return Point{}, err
				}
				return Point{X: mb, Gbps: res.AggregateThroughputGbps()}, nil
			},
		}
	}
	points, err := runJobs(opt, jobs)
	if err != nil {
		return Figure{}, err
	}
	label := ts.Name
	if label == "" {
		label = spec
	}
	return Figure{
		ID:     "topo",
		Title:  fmt.Sprintf("aggregate dd throughput over topology %q", spec),
		Series: []Series{{Label: label, Points: points}},
	}, nil
}

// RunScenarios runs the canned arbitrary-topology scenarios as one
// flat campaign (every build/workload pair is an independent
// single-threaded simulation, fanned across Options.Jobs workers):
//
//   - validation: the §VI-A platform running the 64 MiB dd read.
//   - fanout8: eight x1 disks contending for one x4 switch uplink,
//     plus a single-disk control build for the aggregate comparison.
//   - p2p: disk-to-NIC DMA under a shared switch, once with
//     switch-level turnaround and once forced to reflect off the root
//     complex.
//
// names selects a subset (nil or empty = all).
func RunScenarios(names []string, opt Options) (ScenarioReport, error) {
	opt = opt.normalize()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	selected := func(n string) bool { return len(want) == 0 || want[n] }

	blockBytes := opt.blockBytes(64)
	cfg := opt.config()

	var jobs []job[[]ScenarioRow]
	if selected("validation") {
		jobs = append(jobs, job[[]ScenarioRow]{label: "validation", spec: topo.Validation(), cfg: cfg,
			run: func(sys *System) ([]ScenarioRow, error) {
				res, err := sys.RunDD(blockBytes)
				if err != nil {
					return nil, err
				}
				return []ScenarioRow{
					{"validation", "dd_throughput", res.ThroughputGbps(), "Gb/s"},
					{"validation", "dd_p50_latency", res.ReqLat.P50.Seconds() * 1e6, "us"},
				}, nil
			}})
	}
	if selected("fanout8") {
		single, err := topo.Parse("switch:x4(disk)")
		if err != nil {
			return ScenarioReport{}, err
		}
		jobs = append(jobs,
			job[[]ScenarioRow]{label: "fanout8", spec: topo.Fanout8(), cfg: cfg,
				run: func(sys *System) ([]ScenarioRow, error) {
					res, err := sys.RunDDAll(blockBytes)
					if err != nil {
						return nil, err
					}
					return []ScenarioRow{
						{"fanout8", "aggregate_throughput", res.AggregateThroughputGbps(), "Gb/s"},
						{"fanout8", "fairness_spread", res.FairnessSpread(), "max/min"},
						{"fanout8", "disks", float64(len(res.PerDisk)), "count"},
					}, nil
				}},
			job[[]ScenarioRow]{label: "fanout1", spec: single, cfg: cfg,
				run: func(sys *System) ([]ScenarioRow, error) {
					res, err := sys.RunDD(blockBytes)
					if err != nil {
						return nil, err
					}
					return []ScenarioRow{
						{"fanout8", "single_disk_baseline", res.ThroughputGbps(), "Gb/s"},
					}, nil
				}},
		)
	}
	if selected("p2p") {
		p2pJob := func(scenario string, noP2P bool) job[[]ScenarioRow] {
			c := cfg
			c.NoP2P = noP2P
			return job[[]ScenarioRow]{label: scenario, spec: topo.P2P(), cfg: c,
				run: func(sys *System) ([]ScenarioRow, error) {
					res, err := sys.RunP2P(64, 4)
					if err != nil {
						return nil, err
					}
					return []ScenarioRow{
						{scenario, "p50_cmd_latency", res.CmdLat.P50.Seconds() * 1e6, "us"},
						{scenario, "throughput", res.ThroughputGbps(), "Gb/s"},
						{scenario, "switch_turnarounds", float64(sys.Turnarounds()), "count"},
						{scenario, "rc_reflections", float64(sys.Reflections()), "count"},
					}, nil
				}}
		}
		jobs = append(jobs, p2pJob("p2p", false), p2pJob("p2p-reflect", true))
	}
	if len(jobs) == 0 {
		return ScenarioReport{}, fmt.Errorf("no known scenario in %v (have %v)", names, topo.CannedNames())
	}

	results, err := runJobs(opt, jobs)
	if err != nil {
		return ScenarioReport{}, err
	}
	var report ScenarioReport
	for _, rows := range results {
		report.Rows = append(report.Rows, rows...)
	}
	return report, nil
}
