package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"pciesim/internal/fault"
	"pciesim/internal/kernel"
	"pciesim/internal/pcie"
	"pciesim/internal/sim"
	"pciesim/internal/topo"
	wl "pciesim/internal/workload"
)

// workload is one benchmark input: a platform plus the public call that
// drives it. Everything is built from the topo and workload packages,
// never internal/system, so folding that wrapper away cannot break the
// benchmark.
type workload struct {
	name string
	why  string
	// seeded marks workloads whose simulation depends on the seed. The
	// others produce the seed-1 fingerprint at every seed.
	seeded bool
	// size is the amount of work per rep: bytes per dd (per disk for
	// fanout), or frames for the NIC workload. Tests shrink it.
	size int
	// setup returns the platform and the timed call for one rep. Inputs
	// (traces) are generated here, before the host clock starts.
	setup func(seed uint64, size int) (*topo.Spec, topo.Config, func(*topo.System) (modelOut, error), error)
}

// modelOut is what the simulated platform reports: the numbers a user of
// the model reads, checked beside every host-cost number.
type modelOut struct {
	gbps  float64
	p99us float64
}

// fanoutSpec is three x4 switches with six disks each: the deepest event
// queue and the widest arbitration of any workload.
const fanoutSpec = "switch:x4(disk*6),switch:x4(disk*6),switch:x4(disk*6)"

// ddConfig is the validation baseline with dd's startup cost scaled by
// 1/64, the scale the repository's engine benchmarks use, so the run is
// dominated by transfer rather than by an idle startup delay.
func ddConfig() topo.Config {
	cfg := topo.DefaultConfig()
	cfg.DD.StartupOverhead /= 64
	return cfg
}

var workloads = []workload{
	{
		name: "dd-read",
		why:  "Fig 9 validation stack, 4 MiB dd read: link tx/deliver/ackTimer events dominate, so link and event-queue changes show here first",
		size: 4 << 20,
		setup: func(_ uint64, size int) (*topo.Spec, topo.Config, func(*topo.System) (modelOut, error), error) {
			return topo.Validation(), ddConfig(), func(sys *topo.System) (modelOut, error) {
				return ddOut(sys.RunDD(uint64(size)))
			}, nil
		},
	},
	{
		name:   "dd-write-fc-lossy",
		why:    "4 MiB dd write under 2 Cpl credits with 1e-3 TLP corruption: payload rides completions, so UpdateFC, NAK/replay timers and IOCache fills run",
		seeded: true,
		size:   4 << 20,
		setup: func(seed uint64, size int) (*topo.Spec, topo.Config, func(*topo.System) (modelOut, error), error) {
			cfg := ddConfig()
			cfg.Credits = pcie.CreditConfig{CplHdr: 2}
			cfg.Faults = map[string]*fault.Plan{"disklink": fault.CorruptionPlan(1e-3)}
			cfg.Seed = seed
			return topo.Validation(), cfg, func(sys *topo.System) (modelOut, error) {
				return ddOut(sys.RunDDWrite(uint64(size)))
			}, nil
		},
	},
	fanout("fanout18", 1,
		"18 concurrent dd reads behind 3 switches on the serial engine: router arbitration and the deepest event queue"),
	fanout("fanout18-par2", 2,
		"the fanout18 simulation on 2 timing domains: whether the parallel engine pays on 2 CPUs, against fanout18"),
	{
		name: "nic-rx-bursty",
		why:  "5000 bursty 1500 B frames into the MSI NIC, open loop: sparse interrupt-driven transfers and far-future arrival timers",
		size: 5000,
		setup: func(seed uint64, size int) (*topo.Spec, topo.Config, func(*topo.System) (modelOut, error), error) {
			tr, err := wl.Synthesize([]wl.FlowSpec{{
				Endpoint: "nic",
				Op:       wl.OpRx,
				Arrival:  wl.ArrivalBursty,
				Ops:      size,
				Len:      1500,
				MeanGap:  12 * sim.Microsecond,
				BurstLen: 16,
				BurstGap: 1 * sim.Microsecond,
				Seed:     seed,
			}})
			if err != nil {
				return nil, topo.Config{}, nil, err
			}
			cfg := topo.DefaultConfig()
			cfg.EnableMSI = true
			return topo.Validation(), cfg, func(sys *topo.System) (modelOut, error) {
				res, err := wl.Run(sys, tr, wl.RunConfig{})
				if err != nil {
					return modelOut{}, err
				}
				f := res.Flows[0]
				if f.Dropped > 0 || f.Ops != size {
					return modelOut{}, fmt.Errorf("nic rx: %d of %d frames delivered, %d dropped", f.Ops, size, f.Dropped)
				}
				return modelOut{gbps: f.GoodputGbps(), p99us: us(f.Lat.P99)}, nil
			}, nil
		},
	},
}

// fanout is the fanoutSpec platform running dd on every disk at once,
// on the given number of timing domains.
func fanout(name string, domains int, why string) workload {
	return workload{
		name: name,
		why:  why,
		size: 512 << 10,
		setup: func(_ uint64, size int) (*topo.Spec, topo.Config, func(*topo.System) (modelOut, error), error) {
			spec, err := topo.Parse(fanoutSpec)
			if err != nil {
				return nil, topo.Config{}, nil, err
			}
			cfg := ddConfig()
			cfg.Domains = domains
			return spec, cfg, func(sys *topo.System) (modelOut, error) {
				res, err := sys.RunDDAll(uint64(size))
				if err != nil {
					return modelOut{}, err
				}
				out := modelOut{gbps: res.AggregateThroughputGbps()}
				for i, d := range res.PerDisk {
					if d.Errors > 0 {
						return modelOut{}, fmt.Errorf("disk %d: %d dd requests errored", i, d.Errors)
					}
					out.p99us = max(out.p99us, us(d.ReqLat.P99))
				}
				return out, nil
			}, nil
		},
	}
}

func ddOut(res kernel.DDResult, err error) (modelOut, error) {
	if err != nil {
		return modelOut{}, err
	}
	if res.Errors > 0 {
		return modelOut{}, fmt.Errorf("%d of %d dd requests errored", res.Errors, res.Requests)
	}
	return modelOut{gbps: res.ThroughputGbps(), p99us: us(res.ReqLat.P99)}, nil
}

func us(t sim.Tick) float64 { return t.Seconds() * 1e6 }

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// fingerprint hashes the drained system's stats dump with the host-cost
// keys removed: sim.* (fired/recycled counts) and mem.pool.* (free-list
// hits) may move in a speed-only change, every other key may not.
func fingerprint(sys *topo.System) (string, error) {
	var buf bytes.Buffer
	if err := sys.Eng.Stats().WriteJSON(&buf, uint64(sys.Eng.Now())); err != nil {
		return "", err
	}
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	var dump map[string]any
	if err := dec.Decode(&dump); err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	for _, section := range dump {
		m, ok := section.(map[string]any)
		if !ok {
			continue
		}
		for k := range m {
			if strings.HasPrefix(k, "sim.") || strings.HasPrefix(k, "mem.pool.") {
				delete(m, k)
			}
		}
	}
	canon, err := json.Marshal(dump)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// expectedFingerprint returns the committed fingerprint a rep must
// reproduce, or "" when the seed has none (seeded workloads off seed 1,
// where every rep must instead match the first).
func expectedFingerprint(expect map[string]string, w workload, seed uint64) string {
	if w.seeded && seed != 1 {
		return ""
	}
	return expect[w.name]
}
