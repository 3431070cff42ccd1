package pciesim_test

import (
	"fmt"

	"pciesim"
)

// Build the paper's validated platform, boot it, and run a dd block
// read through the PCI-Express fabric.
func ExampleBuild() {
	cfg := pciesim.DefaultConfig()
	cfg.DD.StartupOverhead = 0 // steady-state number for a small demo block
	sys, err := pciesim.Build(pciesim.CannedTopo("validation"), cfg)
	if err != nil {
		panic(err)
	}

	topo, err := sys.Boot()
	if err != nil {
		panic(err)
	}
	fmt.Printf("functions: %d, buses: %d\n", len(topo.All), topo.Buses)

	res, err := sys.RunDD(1 << 20)
	if err != nil {
		panic(err)
	}
	fmt.Printf("dd moved %d bytes in %d requests\n", res.Bytes, res.Requests)
	// Output:
	// functions: 8, buses: 7
	// dd moved 1048576 bytes in 8 requests
}

// Regenerate the paper's Table II (MMIO read latency vs root complex
// latency).
func ExampleRunTableII() {
	rows, err := pciesim.RunTableII(1)
	if err != nil {
		panic(err)
	}
	for _, r := range rows {
		fmt.Printf("rc=%dns mmio=%.0fns\n", r.RCLatencyNs, r.MMIOLatencyNs)
	}
	// Output:
	// rc=50ns mmio=318ns
	// rc=75ns mmio=368ns
	// rc=100ns mmio=418ns
	// rc=125ns mmio=468ns
	// rc=150ns mmio=518ns
}

// Explore a hypothetical configuration: what does an x8 disk link do to
// the data-link layer?
func ExampleConfig() {
	cfg := pciesim.DefaultConfig()
	cfg.DD.StartupOverhead = 0
	spec := pciesim.CannedTopo("validation")
	spec.Link("uplink").Width = 8
	spec.Link("disklink").Width = 8
	sys, err := pciesim.Build(spec, cfg)
	if err != nil {
		panic(err)
	}
	if _, err := sys.RunDD(1 << 20); err != nil {
		panic(err)
	}
	st := sys.LinkByName("uplink").Link.Down().Stats()
	fmt.Printf("upstream link replayed TLPs: %v\n", st.ReplaysTx > 0)
	// Output:
	// upstream link replayed TLPs: true
}
