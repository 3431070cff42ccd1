package pciesim

import (
	"testing"
)

// Flow-control tests at the public-API level: the link-level credit
// machinery is covered in internal/pcie; these exercise the assembled
// platform where all three classes (posted MMIO writes, non-posted
// reads, DMA completions) share each link's pools.

// TestFCMinimalCreditsDeadlockFree is the ISSUE's deadlock-freedom
// criterion: with the smallest legal pool — one header credit per class
// on every link — a full dd write (DMA reads + completions + MMIO + the
// interrupt path) must still run to completion, and must keep doing so
// while the fault campaign corrupts and drops packets (forcing replays,
// which retransmit against already-consumed credits).
func TestFCMinimalCreditsDeadlockFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate float64
	}{
		{"clean", 0},
		{"faulted", 0.02},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Credits = CreditConfig{PostedHdr: 1, NonPostedHdr: 1, CplHdr: 1}
			cfg.Seed = 7
			if tc.rate > 0 {
				cfg.Faults = map[string]*FaultPlan{
					"disklink": faultPlanWithDrops(tc.rate),
					"uplink":   faultPlanWithDrops(tc.rate),
				}
			}
			s := buildValidation(t, cfg)
			res, err := s.RunDDWrite(256 << 10)
			if err != nil {
				t.Fatal(err)
			}
			if res.Bytes != 256<<10 || res.Errors != 0 {
				t.Fatalf("dd under minimal credits: %+v", res)
			}
			// The single-credit pools must have been the bottleneck, not
			// silently bypassed.
			if s.LinkByName("disklink").Link.Up().Stats().FCStallsCpl == 0 {
				t.Error("one Cpl header credit must stall the completion stream")
			}
			// Reads exercise the posted direction the same way.
			if _, err := s.RunDD(128 << 10); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// faultPlanWithDrops builds a per-direction corruption+drop+UpdateFC-drop
// profile at the given rate.
func faultPlanWithDrops(rate float64) *FaultPlan {
	prof := FaultProfile{Rates: FaultRates{
		TLPCorrupt:   rate,
		DLLPCorrupt:  rate,
		Drop:         rate / 2,
		UpdateFCDrop: rate,
	}}
	return &FaultPlan{Up: prof, Down: prof}
}

// TestFCConfigThroughput sanity-checks the public credit plumbing: a
// generously-credited platform matches the legacy infinite-credit one
// within a small flow-control DLLP overhead.
func TestFCConfigThroughput(t *testing.T) {
	legacy := buildValidation(t, DefaultConfig())
	lres, err := legacy.RunDD(512 << 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Credits = UniformCredits(16)
	fc := buildValidation(t, cfg)
	fres, err := fc.RunDD(512 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := fres.ThroughputGbps() / lres.ThroughputGbps(); ratio < 0.85 || ratio > 1.001 {
		t.Errorf("credited/legacy throughput = %.3f, want just under 1 (DLLP overhead only)", ratio)
	}
	if fc.LinkByName("disklink").Link.Up().Stats().UpdateFCTx == 0 {
		t.Error("credited link must return UpdateFC DLLPs")
	}
}
