package pciesim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pciesim/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden stats dumps")

// goldenCases are the pinned full-platform runs. Each builds a system,
// drives a workload, and dumps the complete stats registry; the JSON is
// compared byte-for-byte against testdata/golden. The dump covers every
// instrumented component (fabric, cache, DRAM, kernel, pools), so any
// unintended behavioral drift — an event fired at a different tick, a
// packet taking a different path, a leak — shows up as a diff.
var goldenCases = []struct {
	name string
	run  func(domains int) (*System, error)
}{
	{"dd-baseline", func(domains int) (*System, error) {
		cfg := DefaultConfig()
		cfg.DD.StartupOverhead /= 16
		cfg.Domains = domains
		sys, err := Build(CannedTopo("validation"), cfg)
		if err != nil {
			return nil, err
		}
		_, err = sys.RunDD(4 << 20)
		return sys, err
	}},
	{"dd-faulted", func(domains int) (*System, error) {
		cfg := DefaultConfig()
		cfg.DD.StartupOverhead /= 16
		cfg.Domains = domains
		rates := FaultRates{TLPCorrupt: 1e-3, DLLPCorrupt: 1e-3, Drop: 5e-4}
		cfg.Faults = map[string]*FaultPlan{"disklink": {
			Seed: 7,
			Up:   FaultProfile{Rates: rates},
			Down: FaultProfile{Rates: rates},
		}}
		cfg.CompletionTimeout = 100 * Microsecond
		cfg.DiskCmdTimeout = 2 * Millisecond
		cfg.DiskDMATimeout = 500 * Microsecond
		sys, err := Build(CannedTopo("validation"), cfg)
		if err != nil {
			return nil, err
		}
		if _, err := sys.RunDD(4 << 20); err != nil {
			return nil, err
		}
		sys.Eng.Run() // drain stragglers, like the error sweep does
		return sys, nil
	}},
	{"sweep-x8", func(domains int) (*System, error) {
		// The congested Fig 9(b) point: x8 links overrun the DRAM drain
		// rate, so replays and timeouts are part of the pinned state.
		cfg := DefaultConfig()
		cfg.DD.StartupOverhead /= 16
		cfg.Domains = domains
		spec := CannedTopo("validation")
		spec.Link("uplink").Width = 8
		spec.Link("disklink").Width = 8
		sys, err := Build(spec, cfg)
		if err != nil {
			return nil, err
		}
		_, err = sys.RunDD(4 << 20)
		return sys, err
	}},
}

// TestGoldenDumps pins the simulator's observable behavior: same
// binary, same config, same seed must reproduce the stats dump to the
// byte. Regenerate with `go test -run TestGoldenDumps -update` after an
// intentional behavior change, and review the diff like code.
func TestGoldenDumps(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.run(0)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := sys.Eng.Stats().WriteJSON(&buf, uint64(sys.Eng.Now())); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", tc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("stats dump differs from %s (-update after intentional changes);\n got %d bytes, want %d\n%s",
					path, buf.Len(), len(want), firstDiff(buf.Bytes(), want))
			}
		})
	}
}

// TestGoldenDumpsParallel re-runs every golden case on the 4-domain
// conservative parallel engine and compares against the same pinned
// serial dumps: the parallel engine's contract is byte-identical
// observable behavior, so it gets no golden files of its own. (The
// faulted case pins the disk subtree and partitions the rest; the
// fallback path is part of what this pins down.)
func TestGoldenDumpsParallel(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.run(4)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := sys.Eng.Stats().WriteJSON(&buf, uint64(sys.Eng.Now())); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", tc.name+".json")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run TestGoldenDumps with -update first)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("-par 4 stats dump differs from the serial golden %s;\n got %d bytes, want %d\n%s",
					path, buf.Len(), len(want), firstDiff(buf.Bytes(), want))
			}
		})
	}
}

// buildValidation builds the paper's §VI-A platform with cfg, failing
// the test on a build error.
func buildValidation(tb testing.TB, cfg Config) *System {
	tb.Helper()
	sys, err := Build(CannedTopo("validation"), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// firstDiff locates the first divergent line for a readable failure.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("first diff at line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("dumps diverge in length: %d vs %d lines", len(g), len(w))
}

// TestParallelEquivalence proves the tentpole's core claim: fanning a
// sweep across workers changes nothing observable. Every per-run stats
// dump and the assembled figure must be byte-identical between -jobs 1
// and -jobs 8.
func TestParallelEquivalence(t *testing.T) {
	sweep := func(jobs int) (Figure, map[string][]byte) {
		dumps := make(map[string][]byte)
		opt := Options{
			Scale:   256,
			BlockMB: []int{64, 128},
			Jobs:    jobs,
			ObserveDone: func(eng *sim.Engine, label string) error {
				var buf bytes.Buffer
				if err := eng.Stats().WriteJSON(&buf, uint64(eng.Now())); err != nil {
					return err
				}
				dumps[label] = buf.Bytes()
				return nil
			},
		}
		fig, err := RunFig9b(opt)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return fig, dumps
	}

	serialFig, serialDumps := sweep(1)
	parallelFig, parallelDumps := sweep(8)

	if !reflect.DeepEqual(serialFig, parallelFig) {
		t.Errorf("figure differs between jobs=1 and jobs=8:\n%v\n%v", serialFig, parallelFig)
	}
	if len(serialDumps) != len(parallelDumps) {
		t.Fatalf("run counts differ: %d vs %d", len(serialDumps), len(parallelDumps))
	}
	for label, want := range serialDumps {
		got, ok := parallelDumps[label]
		if !ok {
			t.Errorf("parallel sweep missing run %q", label)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("run %q: stats dump differs between jobs=1 and jobs=8", label)
		}
	}
}

// TestCampaignEquivalence: the Monte-Carlo campaign is deterministic in
// every field at any worker count.
func TestCampaignEquivalence(t *testing.T) {
	opt := Options{Scale: 256, BlockMB: []int{64}}
	serial := opt
	serial.Jobs = 1
	parallel := opt
	parallel.Jobs = 4
	a, err := RunFaultCampaign(4, 1e-3, serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaultCampaign(4, 1e-3, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("campaign results differ between jobs=1 and jobs=4:\n%+v\n%+v", a, b)
	}
}

// TestPacketPoolLeakCheck: a drained, fault-free run returns every
// pooled packet — Live() is the leak detector the pool exists for.
func TestPacketPoolLeakCheck(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DD.StartupOverhead /= 64
	sys := buildValidation(t, cfg)
	if _, err := sys.RunDD(1 << 20); err != nil {
		t.Fatal(err)
	}
	sys.Eng.Run() // drain everything in flight
	st := sys.PktPool.Stats()
	if live := st.Live(); live != 0 {
		t.Fatalf("packet pool leaked %d packets (allocs=%d reuses=%d releases=%d)",
			live, st.Allocs, st.Reuses, st.Releases)
	}
	if st.Reuses == 0 {
		t.Fatal("packet pool never reused a packet; pooling is not wired")
	}
	if rec := sys.Eng.Recycled(); rec == 0 {
		t.Fatal("event free list never recycled an event")
	}
}
