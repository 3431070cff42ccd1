package topo

import (
	"testing"

	"pciesim/internal/fault"
	"pciesim/internal/kernel"
	"pciesim/internal/pcie"
)

// ddAllocsPerMiB bounds the heap objects a warm platform allocates per
// MiB a dd moves. What remains is per-request kernel and device work
// (dd requests, disk commands, DMA descriptors); links, switches and
// the IOCache allocate nothing per TLP or per cache line.
const ddAllocsPerMiB = 2000

// TestSteadyStateDDAllocs runs one warm-up dd on a System, then pins
// the allocations of a second dd on the same System.
func TestSteadyStateDDAllocs(t *testing.T) {
	ddConfig := func() Config {
		cfg := DefaultConfig()
		cfg.DD.StartupOverhead /= 64
		return cfg
	}
	ddErrors := func(res kernel.DDResult, err error) (int, error) { return res.Errors, err }
	cases := []struct {
		name  string
		spec  string // "" is the validation platform
		cfg   func() Config
		moved uint64 // bytes per dd, over every disk
		run   func(s *System) (errors int, err error)
	}{
		{"dd-read", "", ddConfig, 1 << 20, func(s *System) (int, error) {
			return ddErrors(s.RunDD(1 << 20))
		}},
		{"dd-write-fc-lossy", "", func() Config {
			cfg := ddConfig()
			cfg.Credits = pcie.CreditConfig{CplHdr: 2}
			cfg.Faults = map[string]*fault.Plan{"disklink": fault.CorruptionPlan(1e-3)}
			return cfg
		}, 1 << 20, func(s *System) (int, error) {
			return ddErrors(s.RunDDWrite(1 << 20))
		}},
		{"fanout18", "switch:x4(disk*6),switch:x4(disk*6),switch:x4(disk*6)", ddConfig, 18 * (128 << 10),
			func(s *System) (int, error) {
				res, err := s.RunDDAll(128 << 10)
				errs := 0
				for _, d := range res.PerDisk {
					errs += d.Errors
				}
				return errs, err
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := Validation()
			if c.spec != "" {
				var err error
				if spec, err = Parse(c.spec); err != nil {
					t.Fatal(err)
				}
			}
			s := buildSpec(t, spec, c.cfg())
			var errs int
			var err error
			// AllocsPerRun runs the dd once to warm up, then measures a
			// second run on the same System.
			allocs := testing.AllocsPerRun(1, func() {
				var n int
				n, err = c.run(s)
				errs += n
			})
			if err != nil {
				t.Fatal(err)
			}
			if errs > 0 {
				t.Fatalf("%d dd requests errored", errs)
			}
			perMiB := allocs / (float64(c.moved) / (1 << 20))
			t.Logf("%.0f allocations per MiB moved", perMiB)
			if perMiB > ddAllocsPerMiB {
				t.Errorf("a warm dd allocates %.0f objects per MiB moved, want <= %d", perMiB, ddAllocsPerMiB)
			}
		})
	}
}
