// Quickstart: build the paper's validated platform, boot it (PCI
// enumeration + driver probes over the simulated fabric), and run one
// dd block read through root complex, switch and links.
package main

import (
	"fmt"
	"log"

	"pciesim"
)

func main() {
	// The calibrated baseline: Gen2 fabric, x4 root-port-to-switch
	// link, x1 switch-to-disk link, 150ns root complex and switch.
	cfg := pciesim.DefaultConfig()
	// The demo moves a 4 MiB block instead of the paper's 64 MiB;
	// scale dd's fixed startup cost to match (see Options.Scale).
	cfg.DD.StartupOverhead /= 16
	sys, err := pciesim.Build(pciesim.CannedTopo("validation"), cfg)
	if err != nil {
		log.Fatalf("build: %v", err)
	}

	topo, err := sys.Boot()
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	fmt.Printf("enumerated %d PCI functions across %d buses\n", len(topo.All), topo.Buses)
	for _, d := range topo.Endpoints() {
		fmt.Printf("  endpoint %v [%04x:%04x], IRQ %d\n", d.BDF, d.VendorID, d.DeviceID, d.IRQ)
	}
	fmt.Printf("NIC driver bound with %v interrupts (MSI/MSI-X are disabled by the device)\n",
		sys.NICDriver.Handle.IntMode)

	// dd if=/dev/disk of=/dev/zero bs=4M count=1 iflag=direct
	res, err := sys.RunDD(4 << 20)
	if err != nil {
		log.Fatalf("dd: %v", err)
	}
	fmt.Printf("dd read: %v\n", res)

	st := sys.LinkByName("disklink").Link.Down().Stats()
	fmt.Printf("disk link: %d TLPs sent, %d ACK DLLPs received, %d replays\n",
		st.TLPsTx, st.AcksRx, st.ReplaysTx)
	fmt.Printf("simulated %v of virtual time in %d events\n", sys.Eng.Now(), sys.Eng.Fired())
}
