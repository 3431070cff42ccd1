// Command lspci boots the simulated platform, then dumps the
// enumerated PCI hierarchy the way the Linux lspci tool would: one
// line per function with -v adding BARs, bridge windows, interrupt
// lines and the capability chain.
package main

import (
	"flag"
	"fmt"
	"os"

	"pciesim"
	"pciesim/internal/kernel"
	"pciesim/internal/pci"
)

func main() {
	verbose := flag.Bool("v", false, "verbose: BARs, windows, capabilities")
	hexdump := flag.Bool("x", false, "hex-dump the first 64 bytes of each config space (implies -v)")
	flag.Parse()
	if *hexdump {
		*verbose = true
	}

	s, err := pciesim.Build(pciesim.CannedTopo("validation"), pciesim.DefaultConfig())
	if err != nil {
		fmt.Fprintf(os.Stderr, "lspci: %v\n", err)
		os.Exit(1)
	}
	topo, err := s.Boot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lspci: %v\n", err)
		os.Exit(1)
	}
	for _, d := range topo.All {
		fmt.Printf("%v %s: %s [%04x:%04x]\n",
			d.BDF, className(d.ClassCode), deviceName(d), d.VendorID, d.DeviceID)
		if !*verbose {
			continue
		}
		if d.IsBridge {
			fmt.Printf("\tBus: primary=%02x secondary=%02x subordinate=%02x\n",
				d.BDF.Bus, d.Secondary, d.Subordinate)
		}
		for _, b := range d.BARs {
			kind := "Memory"
			if b.IsIO {
				kind = "I/O ports"
			}
			fmt.Printf("\tRegion %d: %s at %#x [size=%d]\n", b.Index, kind, b.Addr, b.Size)
		}
		if !d.IsBridge {
			fmt.Printf("\tInterrupt: pin A routed to IRQ %d\n", d.IRQ)
		}
		if cs, ok := s.PCIHost.Lookup(d.BDF); ok {
			for _, id := range pci.CapabilityChain(cs) {
				fmt.Printf("\tCapabilities: %s\n", capName(id))
			}
			for _, id := range pci.WalkExtendedCapabilities(cs) {
				fmt.Printf("\tExtended capabilities: %s\n", extCapName(id))
			}
			if *hexdump {
				dumpHeader(cs)
			}
		}
	}
}

// dumpHeader prints the standard 64-byte header like lspci -x.
func dumpHeader(cs pci.ConfigAccessor) {
	for row := 0; row < 64; row += 16 {
		fmt.Printf("%02x:", row)
		for b := 0; b < 16; b++ {
			fmt.Printf(" %02x", cs.ConfigRead(row+b, 1))
		}
		fmt.Println()
	}
}

func deviceName(d *kernel.FoundDevice) string {
	switch {
	case d.DeviceID == pci.Device82574L:
		return "82574L Gigabit Network Connection (8254x-pcie model)"
	case d.DeviceID == 0x2922:
		return "SATA AHCI Controller (IDE disk model)"
	case d.DeviceID == pci.DeviceWildcatPort0, d.DeviceID == pci.DeviceWildcatPort1,
		d.DeviceID == pci.DeviceWildcatPort2:
		return "Wildcat Point PCI Express Root Port (VP2P)"
	case d.IsBridge:
		return "PCI Express switch port (VP2P)"
	default:
		return "Unknown device"
	}
}

func className(class uint32) string {
	switch class >> 16 {
	case 0x01:
		return "Mass storage controller"
	case 0x02:
		return "Ethernet controller"
	case 0x06:
		return "PCI bridge"
	default:
		return fmt.Sprintf("Class %06x", class)
	}
}

func capName(id uint8) string {
	switch id {
	case pci.CapIDPowerManagement:
		return "Power Management"
	case pci.CapIDMSI:
		return "MSI (disabled by the model; driver falls back to INTx)"
	case pci.CapIDPCIExpress:
		return "PCI Express"
	case pci.CapIDMSIX:
		return "MSI-X (disabled by the model)"
	default:
		return fmt.Sprintf("Capability %#02x", id)
	}
}

func extCapName(id uint16) string {
	switch id {
	case pci.ExtCapIDAER:
		return "Advanced Error Reporting"
	case pci.ExtCapIDSerialNumber:
		return "Device Serial Number"
	default:
		return fmt.Sprintf("Extended capability %#04x", id)
	}
}
