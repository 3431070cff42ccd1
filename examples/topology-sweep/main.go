// topology-sweep uses the model for what the paper's title promises —
// future system exploration: how does the I/O throughput of the same
// platform respond to PCI-Express generation and width, and where does
// the interconnect stop being the bottleneck?
package main

import (
	"fmt"
	"log"

	"pciesim"
)

func main() {
	const blockMB = 2
	fmt.Println("dd throughput (Gb/s) for the disk behind a switch, by link generation and width")
	fmt.Printf("%-8s", "")
	widths := []int{1, 2, 4, 8}
	for _, w := range widths {
		fmt.Printf("%10s", fmt.Sprintf("x%d", w))
	}
	fmt.Println()
	for _, gen := range []pciesim.Generation{pciesim.Gen1, pciesim.Gen2, pciesim.Gen3} {
		fmt.Printf("%-8v", gen)
		for _, w := range widths {
			cfg := pciesim.DefaultConfig()
			cfg.DD.StartupOverhead /= 64
			cfg.Gen = gen
			spec := pciesim.CannedTopo("validation")
			spec.Link("uplink").Width = w
			spec.Link("disklink").Width = w
			sys, err := pciesim.Build(spec, cfg)
			if err != nil {
				log.Fatal(err)
			}
			res, err := sys.RunDD(blockMB << 20)
			if err != nil {
				log.Fatal(err)
			}
			mark := ""
			if st := sys.LinkByName("uplink").Link.Down().Stats(); st.ReplayRate() > 0.05 {
				mark = "*" // double-digit replay: fabric congested
			}
			fmt.Printf("%9.2f%s", res.ThroughputGbps(), mark)
			if mark == "" {
				fmt.Print(" ")
			}
		}
		fmt.Println()
	}
	fmt.Println("\n* = >5% of upstream TLPs replayed: the link outruns the")
	fmt.Println("    platform's DMA drain and collapses into replay timeouts —")
	fmt.Println("    wider is not faster once buffers saturate (the paper's x8 lesson).")
}
