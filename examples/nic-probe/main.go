// nic-probe walks through §IV of the paper from the driver's point of
// view: the e1000e probe of the 8254x-pcie model (capability chain,
// MSI/MSI-X fallback to legacy INTx), the Table II MMIO latency probe,
// and a transmit through the descriptor ring — descriptor fetch and
// frame buffer fetch travel as DMA reads over the PCI-Express fabric.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"pciesim"
	"pciesim/internal/devices"
	"pciesim/internal/kernel"
)

func main() {
	sys, err := pciesim.Build(pciesim.CannedTopo("validation"), pciesim.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Boot(); err != nil {
		log.Fatal(err)
	}
	h := sys.NICDriver.Handle

	fmt.Printf("e1000e bound to %v\n", h.Dev.BDF)
	fmt.Printf("  BAR0 (register MMIO) at %#x\n", h.BAR0)
	fmt.Printf("  capability chain seen by the probe: %v (PM, MSI, PCIe, MSI-X)\n", h.Caps)
	fmt.Printf("  PCIe link from the capability: Gen%d x%d\n", h.LinkSpeed, h.LinkWidth)
	fmt.Printf("  interrupt mode after MSI/MSI-X attempts: %v\n", h.IntMode)

	// Table II style kernel-module probe: time a 4-byte register read.
	probe, err := sys.MMIOProbe(32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  STATUS register MMIO read latency: %v (avg of %d)\n", probe.Avg(), probe.Samples)

	// Transmit one frame: build a descriptor ring in DRAM, point the
	// NIC at it, ring the doorbell, and wait for the TX interrupt.
	const (
		ringBase = 0x9000_0000
		bufBase  = 0x9000_1000
		frameLen = 1500
	)
	desc := make([]byte, devices.NICDescSize)
	binary.LittleEndian.PutUint64(desc, bufBase)
	binary.LittleEndian.PutUint16(desc[8:], frameLen)
	sys.DRAM.WriteFunctional(ringBase, desc)

	nic := sys.NICs[0].Dev
	txDone := kernel.NewWaiter("txdone")
	nic.OnTransmit = func(n int) { fmt.Printf("  NIC transmitted a %d-byte frame\n", n) }
	prev := nic.OnInterrupt
	nic.OnInterrupt = func() { prev(); txDone.Signal() }

	task := sys.CPU.Spawn("tx", 0, func(t *kernel.Task) {
		t.Write32(h.BAR0+devices.NICRegTDBAL, ringBase)
		t.Write32(h.BAR0+devices.NICRegTDBAH, 0)
		t.Write32(h.BAR0+devices.NICRegTDLEN, 8*devices.NICDescSize)
		t.Write32(h.BAR0+devices.NICRegIMS, devices.NICIntTxDone)
		start := t.Now()
		t.Write32(h.BAR0+devices.NICRegTDT, 1) // doorbell
		t.Wait(txDone)
		icr := t.Read32(h.BAR0 + devices.NICRegICR) // read-to-clear
		fmt.Printf("  TX complete in %v (ICR=%#x)\n", t.Now()-start, icr)
	})
	sys.Eng.Run()
	if !task.Done() {
		log.Fatal("tx task wedged")
	}
	tx, txBytes, _ := nic.Stats()
	fmt.Printf("  NIC stats: %d frame(s), %d bytes\n", tx, txBytes)
}
