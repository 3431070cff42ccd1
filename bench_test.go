package pciesim

import (
	"fmt"
	"testing"
	"time"

	"pciesim/internal/fault"
)

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§VI). Each benchmark runs the corresponding
// experiment and reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the reproduced series next to the harness cost. The dd blocks
// run 64x scaled by default (see Options); cmd/ddbench regenerates the
// curves at any scale, including the paper's full 64-512 MiB blocks.

func benchOptions() Options {
	return Options{Scale: 64, BlockMB: []int{64, 128, 256, 512}}
}

// reportEventRate is the one place every engine benchmark reports its
// throughput metric, so the unit stays consistent across serial and
// parallel runs.
func reportEventRate(b *testing.B, events uint64) {
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

func reportSeries(b *testing.B, fig Figure) {
	for _, s := range fig.Series {
		p := s.Points[len(s.Points)-1]
		b.ReportMetric(p.Gbps, s.Label+"_Gbps")
		if p.ReplayPct > 0.05 {
			b.ReportMetric(p.ReplayPct, s.Label+"_replay%")
		}
	}
}

// BenchmarkFig9a regenerates Fig 9(a): dd throughput, physical
// reference vs simulated platform across switch latencies.
func BenchmarkFig9a(b *testing.B) {
	b.ReportAllocs()
	var fig Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = RunFig9a(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

// BenchmarkFig9b regenerates Fig 9(b): link width sweep.
func BenchmarkFig9b(b *testing.B) {
	b.ReportAllocs()
	var fig Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = RunFig9b(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

// BenchmarkFig9c regenerates Fig 9(c): replay buffer sweep at x8.
func BenchmarkFig9c(b *testing.B) {
	b.ReportAllocs()
	var fig Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = RunFig9c(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

// BenchmarkFig9d regenerates Fig 9(d): port buffer sweep at x8.
func BenchmarkFig9d(b *testing.B) {
	b.ReportAllocs()
	var fig Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = RunFig9d(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

// BenchmarkTableII regenerates Table II: MMIO read latency vs root
// complex latency.
func BenchmarkTableII(b *testing.B) {
	b.ReportAllocs()
	var rows []TableIIRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = RunTableII(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MMIOLatencyNs, fmt.Sprintf("rc%dns_mmio_ns", r.RCLatencyNs))
	}
}

// BenchmarkSimulatorEventRate measures the raw simulation speed of the
// full platform under the dd workload — the harness cost metric.
func BenchmarkSimulatorEventRate(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	var simSeconds float64
	for i := 0; i < b.N; i++ {
		s := buildValidation(b, DefaultConfig())
		if _, err := s.RunDD(1 << 20); err != nil {
			b.Fatal(err)
		}
		events += s.Eng.Fired()
		simSeconds += s.Eng.Now().Seconds()
	}
	reportEventRate(b, events)
	b.ReportMetric(simSeconds/b.Elapsed().Seconds(), "simsec/s")
}

// BenchmarkSimulatorEventRateParallel measures the conservative
// parallel engine against the serial baseline on a wide fabric: three
// x4 switches fanning out to 18 disks, all running dd concurrently.
// Each sub-benchmark is the same simulation at a different -par; the
// stats dumps are byte-identical across them (TestParallelStatsMatchSerial),
// so events/s is the only number that may move. Fired counts come
// from Engine.TotalFired — the root's own counter covers only its
// domain.
func BenchmarkSimulatorEventRateParallel(b *testing.B) {
	ts, err := ParseTopo("switch:x4(disk*6),switch:x4(disk*6),switch:x4(disk*6)")
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			b.ReportAllocs()
			opt := benchOptions()
			opt.Par = par
			cfg := opt.config()
			var events uint64
			for i := 0; i < b.N; i++ {
				sys, err := Build(ts, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.RunDDAll(1 << 20); err != nil {
					b.Fatal(err)
				}
				events += sys.Eng.TotalFired()
			}
			reportEventRate(b, events)
		})
	}
}

// BenchmarkLinkSaturation measures a single link's modeled throughput
// under a saturating DMA write stream for each generation and width —
// the microbenchmark behind Table I's overhead accounting.
func BenchmarkLinkSaturation(b *testing.B) {
	for _, gen := range []Generation{Gen1, Gen2, Gen3} {
		for _, w := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%v_x%d", gen, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cfg := DefaultConfig()
					cfg.Gen = gen
					s, err := Build(validation(w), cfg)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := s.RunDD(256 << 10); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationPostedWrites contrasts the paper's non-posted write
// model with the posted-write extension it names as future work.
func BenchmarkAblationPostedWrites(b *testing.B) {
	for _, posted := range []bool{false, true} {
		name := "nonposted"
		if posted {
			name = "posted"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var gbps float64
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.DD.StartupOverhead /= 64
				cfg.Disk.PostedWrites = posted
				s := buildValidation(b, cfg)
				res, err := s.RunDD(1 << 20)
				if err != nil {
					b.Fatal(err)
				}
				gbps = res.ThroughputGbps()
			}
			b.ReportMetric(gbps, "Gbps")
		})
	}
}

// BenchmarkObservabilityOverhead measures the cost of the stats and
// trace layers against the instrumented-but-idle baseline: "sampled"
// arms the periodic counter sampler, "tracemasked" installs a tracer
// with every category off (the guard cost), "traced" records every
// category, "spansarmed" turns on the per-segment latency attribution
// without a tracer (histogram observes only), and "profiled" arms the
// engine self-profiler. The first two are required to stay within
// noise (~5%) of the baseline, "spansarmed" within 10% (asserted by
// TestArmedSpanOverheadBudget); "traced" shows the price of full
// event capture.
func BenchmarkObservabilityOverhead(b *testing.B) {
	variants := []struct {
		name string
		arm  func(s *System)
	}{
		{"baseline", func(*System) {}},
		{"sampled", func(s *System) { s.Eng.SampleEvery(10 * Microsecond) }},
		{"tracemasked", func(s *System) { s.Eng.SetTracer(NewTracer(0)) }},
		{"traced", func(s *System) { s.Eng.SetTracer(NewTracer(TraceAll)) }},
		{"spansarmed", func(s *System) { s.Eng.ArmSpans() }},
		{"profiled", func(s *System) { s.Eng.Profile() }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.DD.StartupOverhead /= 64
				s := buildValidation(b, cfg)
				v.arm(s)
				if _, err := s.RunDD(1 << 20); err != nil {
					b.Fatal(err)
				}
				events += s.Eng.Fired()
			}
			reportEventRate(b, events)
		})
	}
}

// TestArmedSpanOverheadBudget asserts the span-attribution budget:
// arming spans (the BenchmarkSimulatorEventRate workload with
// ArmSpans on) must cost at most 10% of the bare event rate. Runs are
// interleaved and the fastest of several is compared on each side, so
// host scheduling noise cancels rather than accumulates.
func TestArmedSpanOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	run := func(armed bool) time.Duration {
		cfg := DefaultConfig()
		cfg.DD.StartupOverhead /= 64
		s := buildValidation(t, cfg)
		if armed {
			s.Eng.ArmSpans()
		}
		start := time.Now()
		if _, err := s.RunDD(1 << 20); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// Warm both paths, then interleave timed runs.
	run(false)
	run(true)
	best := func(d, n time.Duration) time.Duration {
		if n < d {
			return n
		}
		return d
	}
	base, armed := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 5; i++ {
		base = best(base, run(false))
		armed = best(armed, run(true))
	}
	if float64(armed) > float64(base)*1.10 {
		t.Errorf("armed span tracing costs %.1f%% (base %v, armed %v), budget is 10%%",
			(float64(armed)/float64(base)-1)*100, base, armed)
	}
}

// BenchmarkAblationErrorRate sweeps injected TLP corruption on the
// disk link, measuring the NAK/replay protocol's overhead curve.
func BenchmarkAblationErrorRate(b *testing.B) {
	for _, rate := range []float64{0, 0.001, 0.01, 0.05} {
		b.Run(fmt.Sprintf("err%.3f", rate), func(b *testing.B) {
			b.ReportAllocs()
			var gbps float64
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.DD.StartupOverhead /= 64
				cfg.Faults = map[string]*FaultPlan{"disklink": fault.CorruptionPlan(rate)}
				cfg.Seed = 11
				s := buildValidation(b, cfg)
				res, err := s.RunDD(1 << 20)
				if err != nil {
					b.Fatal(err)
				}
				gbps = res.ThroughputGbps()
			}
			b.ReportMetric(gbps, "Gbps")
		})
	}
}
