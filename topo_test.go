package pciesim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pciesim/internal/topo"
)

// TestTopoGoldenEnumeration pins the enumerated shape of every canned
// topology: bus/dev/fn assignment, BAR placement, and bridge windows,
// in lspci-style text under testdata/golden/topo. Regenerate with
// `go test -run TestTopoGoldenEnumeration -update` and review the diff
// like code — any enumeration regression is byte-visible here.
func TestTopoGoldenEnumeration(t *testing.T) {
	for _, name := range topo.CannedNames() {
		t.Run(name, func(t *testing.T) {
			sys, err := topo.Build(topo.Canned(name), topo.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := sys.DumpEnumeration(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", "topo", name+".txt")
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
				t.Fatalf("enumeration dump differs from %s (-update after intentional changes)\n%s",
					path, firstDiff(buf.Bytes(), want))
			}
		})
	}
}

// TestTopoValidationMatchesGolden is the byte-for-byte conformance
// check of the topology builder: building the validation platform
// directly through internal/topo (bypassing the pciesim aliases) and
// running the dd-baseline workload must reproduce the exact golden
// stats dump that the original hardwired platform pinned — every
// counter, every histogram bucket, every tick.
func TestTopoValidationMatchesGolden(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.DD.StartupOverhead /= 16
	sys, err := topo.Build(topo.Validation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunDD(4 << 20); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Eng.Stats().WriteJSON(&buf, uint64(sys.Eng.Now())); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "dd-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("topo-built validation platform diverges from the golden dd-baseline dump:\n%s",
			firstDiff(buf.Bytes(), want))
	}
}

// TestFanout8Fairness: eight disks contending for one x4 uplink must
// share it by backpressure, not starvation. Two documented bounds:
//
//   - Fairness: the per-disk completed-sector counts, sampled when the
//     first dd task finishes (while all eight were still contending),
//     stay within 1.30x of each other (max/min). Measured: ~1.04-1.06;
//     round-robin port arbitration plus identical workloads keeps the
//     spread small, and 1.30 leaves room for timing-level jitter from
//     future calibration changes without letting starvation through.
//   - Aggregate throughput: between 3x and 8x the single-disk-
//     under-the-same-switch baseline. The lower bound proves the
//     switch actually overlaps the eight flows (measured ~4.3x, where
//     the shared x4 uplink + DRAM drain saturate); the upper bound is
//     the no-contention ceiling.
func TestFanout8Fairness(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.DD.StartupOverhead /= 16
	sys, err := topo.Build(topo.Fanout8(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunDDAll(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.FairnessSpread(); got > 1.30 {
		t.Errorf("fairness spread %.3f exceeds the documented 1.30 bound (sectors at first exit: %v)",
			got, res.SectorsAtFirstExit)
	}
	for i, s := range res.SectorsAtFirstExit {
		if s == 0 {
			t.Errorf("disk %d completed no sectors while others ran: starvation", i)
		}
	}

	base, err := topo.Parse("switch:x4(disk)")
	if err != nil {
		t.Fatal(err)
	}
	bsys, err := topo.Build(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := bsys.RunDD(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	single := bres.ThroughputGbps()
	agg := res.AggregateThroughputGbps()
	if agg < 3*single || agg > 8*single {
		t.Errorf("aggregate %.3f Gb/s outside [3x, 8x] of single-disk baseline %.3f Gb/s", agg, single)
	}
}

// TestP2PTurnaroundLatency is the acceptance check for switch-level
// peer-to-peer routing: disk-to-NIC DMA under a shared switch must be
// measurably faster with turnaround at the switch than when forced to
// reflect off the root complex. Tolerance: the reflection path adds
// two extra link traversals plus RC processing per chunk, which at
// this calibration is >=2% of end-to-end command latency (measured:
// ~5%); the simulation is deterministic, so the margin is stable.
func TestP2PTurnaroundLatency(t *testing.T) {
	run := func(noP2P bool) (p50 float64, sys *topo.System) {
		cfg := topo.DefaultConfig()
		cfg.NoP2P = noP2P
		sys, err := topo.Build(topo.P2P(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunP2P(16, 4)
		if err != nil {
			t.Fatal(err)
		}
		return res.CmdLat.P50.Seconds(), sys
	}
	turn, tsys := run(false)
	refl, rsys := run(true)

	// The routing counters prove which path the chunks took.
	if tsys.Turnarounds() == 0 || tsys.Reflections() != 0 {
		t.Errorf("turnaround run: %d turnarounds, %d reflections; want >0 and 0",
			tsys.Turnarounds(), tsys.Reflections())
	}
	if rsys.Turnarounds() != 0 || rsys.Reflections() == 0 {
		t.Errorf("reflection run: %d turnarounds, %d reflections; want 0 and >0",
			rsys.Turnarounds(), rsys.Reflections())
	}
	if turn >= refl {
		t.Fatalf("p50 with turnaround (%.3gs) not below reflection (%.3gs)", turn, refl)
	}
	if ratio := refl / turn; ratio < 1.02 {
		t.Errorf("reflection/turnaround p50 ratio %.4f below the stated 1.02 tolerance", ratio)
	}
}
