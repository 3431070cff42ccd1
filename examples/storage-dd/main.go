// storage-dd reproduces the paper's core validation workload (§VI-A)
// as a library user would: sweep dd block sizes on two disk-link
// widths and compare against the analytical physical reference.
package main

import (
	"fmt"
	"log"

	"pciesim"
	"pciesim/internal/sim"
)

func main() {
	blocks := []int{1, 2, 4, 8} // MiB; scaled-down stand-ins for 64-512 MiB
	phys := pciesim.DefaultPhysConfig()
	phys.StartupOverhead /= 64

	fmt.Printf("%-10s %12s %12s %12s\n", "block(MB)", "phys(Gb/s)", "x1(Gb/s)", "x4(Gb/s)")
	for _, mb := range blocks {
		row := []float64{phys.DDThroughputGbps(uint64(mb) << 20)}
		for _, width := range []int{1, 4} {
			spec := pciesim.CannedTopo("validation")
			spec.Link("disklink").Width = width
			cfg := pciesim.DefaultConfig()
			// Keep the startup/block ratio matched to the full-size
			// experiment (see Options.Scale).
			cfg.DD.StartupOverhead /= 64
			res, err := runDD(spec, cfg, uint64(mb)<<20)
			if err != nil {
				log.Fatal(err)
			}
			row = append(row, res.ThroughputGbps())
		}
		fmt.Printf("%-10d %12.3f %12.3f %12.3f\n", mb, row[0], row[1], row[2])
	}

	// The switch latency barely matters next to bandwidth — the
	// paper's Fig 9(a) point.
	fmt.Println("\nswitch latency sensitivity at 4MB, x1 disk link:")
	for _, ns := range []int{50, 100, 150} {
		cfg := pciesim.DefaultConfig()
		cfg.DD.StartupOverhead /= 64
		cfg.SwitchLatency = sim.Tick(ns) * sim.Nanosecond
		res, err := runDD(pciesim.CannedTopo("validation"), cfg, 4<<20)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  switch=%3dns: %.3f Gb/s\n", ns, res.ThroughputGbps())
	}
}

// runDD builds the platform and runs one dd block read on it.
func runDD(spec *pciesim.TopoSpec, cfg pciesim.Config, bytes uint64) (pciesim.DDResult, error) {
	sys, err := pciesim.Build(spec, cfg)
	if err != nil {
		return pciesim.DDResult{}, err
	}
	return sys.RunDD(bytes)
}
