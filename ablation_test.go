package pciesim

import (
	"testing"

	"pciesim/internal/fault"
)

// Ablations for the design choices DESIGN.md calls out: the posted
// write extension the paper names as future work, and link-level error
// injection exercising the NAK path under a full-system workload.

// TestPostedWriteAblation quantifies §VI-B's claim: "Another factor
// that reduces the bandwidth offered by the gem5 PCI-Express model is
// the fact that we do not support posted write requests."
func TestPostedWriteAblation(t *testing.T) {
	run := func(posted bool) float64 {
		cfg := DefaultConfig()
		cfg.DD.StartupOverhead /= 64
		cfg.Disk.PostedWrites = posted
		s := buildValidation(t, cfg)
		res, err := s.RunDD(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputGbps()
	}
	nonPosted := run(false)
	posted := run(true)
	if posted <= nonPosted {
		t.Errorf("posted writes (%.3f Gb/s) must beat the paper's non-posted model (%.3f Gb/s)",
			posted, nonPosted)
	}
	// The gain is the per-sector response barrier, a modest (not 2x)
	// effect — matching the paper's framing of it as one contributing
	// factor.
	if posted > nonPosted*1.5 {
		t.Errorf("posted-write gain %.2fx implausibly large", posted/nonPosted)
	}
	t.Logf("non-posted %.3f Gb/s -> posted %.3f Gb/s (+%.1f%%)",
		nonPosted, posted, (posted/nonPosted-1)*100)
}

// TestErrorInjectionFullSystem runs dd over a disk link that corrupts
// 1% of TLPs: the NAK/replay machinery must preserve the workload's
// correctness end to end, at some throughput cost.
func TestErrorInjectionFullSystem(t *testing.T) {
	run := func(rate float64) (float64, LinkStats) {
		cfg := DefaultConfig()
		cfg.DD.StartupOverhead /= 64
		cfg.Faults = map[string]*FaultPlan{"disklink": fault.CorruptionPlan(rate)}
		cfg.Seed = 7
		s := buildValidation(t, cfg)
		res, err := s.RunDD(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		cmds, sectors := s.Disks[0].Dev.Stats()
		if cmds != 8 || sectors != 256 {
			t.Fatalf("workload incomplete under error rate %v: %d cmds %d sectors", rate, cmds, sectors)
		}
		return res.ThroughputGbps(), s.LinkByName("disklink").Link.Down().Stats()
	}
	clean, st := run(0)
	if st.NaksRx != 0 {
		t.Error("clean run saw NAKs")
	}
	lossy, st := run(0.01)
	if st.NaksRx == 0 {
		t.Error("1% corruption produced no NAKs")
	}
	if lossy >= clean {
		t.Errorf("corruption should cost throughput: %.3f vs %.3f", lossy, clean)
	}
	if lossy < clean*0.5 {
		t.Errorf("1%% corruption halved throughput (%.3f vs %.3f); replay storm suspected", lossy, clean)
	}
	t.Logf("clean %.3f Gb/s, 1%% TLP corruption %.3f Gb/s, %d NAKs", clean, lossy, st.NaksRx)
}
