package topo

import (
	"encoding/binary"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pciesim/internal/devices"
	"pciesim/internal/fault"
	"pciesim/internal/kernel"
	"pciesim/internal/pci"
	"pciesim/internal/sim"
)

// Whole-platform tests on the paper's §VI-A validation platform: the
// canned Validation spec built with DefaultConfig (or an edit of it).

var calibrate = flag.Bool("calibrate", false, "print the calibration tuning report")

// buildValidation builds the validation platform with cfg, failing the
// test on a build error.
func buildValidation(t *testing.T, cfg Config) *System {
	t.Helper()
	return buildSpec(t, Validation(), cfg)
}

func buildSpec(t *testing.T, spec *Spec, cfg Config) *System {
	t.Helper()
	s, err := Build(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// diskLink is the validation platform's switch-to-disk link.
func diskLink(s *System) *LinkInst { return s.LinkByName("disklink") }

func TestBootEnumeratesFullTopology(t *testing.T) {
	s := buildValidation(t, DefaultConfig())
	topo, err := s.Boot()
	if err != nil {
		t.Fatal(err)
	}
	// Bus 0: three root-port VP2Ps.
	if len(topo.Root) != 3 {
		t.Fatalf("found %d devices on bus 0, want 3 VP2Ps", len(topo.Root))
	}
	// DFS bus numbering: switch upstream = bus 1, internal = 2, disk =
	// 3, empty downstream = 4, NIC behind root port 1 = 5, root port 2
	// heads 6.
	disk := topo.FindByID(pci.VendorIntel, 0x2922)
	if disk == nil {
		t.Fatal("disk not discovered")
	}
	if disk.BDF != pci.NewBDF(3, 0, 0) {
		t.Errorf("disk at %v, want 03:00.0", disk.BDF)
	}
	nic := topo.FindByID(pci.VendorIntel, pci.Device82574L)
	if nic == nil {
		t.Fatal("NIC not discovered")
	}
	if nic.BDF != pci.NewBDF(5, 0, 0) {
		t.Errorf("NIC at %v, want 05:00.0", nic.BDF)
	}
	if topo.Buses != 7 {
		t.Errorf("assigned %d buses, want 7", topo.Buses)
	}

	// Every endpoint BAR must fall inside the platform MMIO window and
	// inside every bridge window above it.
	for _, d := range topo.Endpoints() {
		for _, b := range d.BARs {
			if b.IsIO {
				continue
			}
			if b.Addr < MMIOBase || b.Addr+b.Size > MMIOBase+MMIOSize {
				t.Errorf("%v BAR%d at %#x outside the MMIO window", d.BDF, b.Index, b.Addr)
			}
		}
	}
}

func TestBootDriverBinding(t *testing.T) {
	s := buildValidation(t, DefaultConfig())
	if _, err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	nh := s.NICDriver.Handle
	if nh == nil {
		t.Fatal("e1000e did not bind")
	}
	// §IV: MSI/MSI-X are disabled, so the driver must land on legacy.
	if nh.IntMode != kernel.IntModeLegacy {
		t.Errorf("NIC interrupt mode = %v, want legacy INTx", nh.IntMode)
	}
	if len(nh.Caps) != 4 {
		t.Errorf("probe saw %d capabilities, want 4 (PM, MSI, PCIe, MSI-X)", len(nh.Caps))
	}
	if nh.LinkSpeed != pci.LinkSpeedGen2 || nh.LinkWidth != 1 {
		t.Errorf("link info = gen %d x%d", nh.LinkSpeed, nh.LinkWidth)
	}
	dh := s.DiskDriver.Handle
	if dh == nil {
		t.Fatal("disk driver did not bind")
	}
	if dh.BAR0 == 0 {
		t.Error("disk BAR0 unassigned")
	}
	// The paper's check: the VP2P windows now route MMIO to the
	// devices — verified implicitly by the probe's STATUS read, and
	// again by an explicit abort-counter check.
	if s.RC.Aborts() != 0 {
		t.Errorf("%d master aborts during boot", s.RC.Aborts())
	}
}

func TestDDSmallBlock(t *testing.T) {
	s := buildValidation(t, DefaultConfig())
	res, err := s.RunDD(1 << 20) // 1 MiB
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 1<<20 {
		t.Errorf("moved %d bytes", res.Bytes)
	}
	if res.Requests != 8 {
		t.Errorf("%d requests, want 8 x 128KiB", res.Requests)
	}
	if res.ThroughputGbps() <= 0 {
		t.Error("throughput must be positive")
	}
	cmds, sectors := s.Disks[0].Dev.Stats()
	if cmds != 8 || sectors != 256 {
		t.Errorf("disk stats: %d commands %d sectors", cmds, sectors)
	}
}

func TestMMIOProbeLatencyScalesWithRCLatency(t *testing.T) {
	var prev sim.Tick
	for _, rcLat := range []sim.Tick{50, 100, 150} {
		cfg := DefaultConfig()
		cfg.RootComplexLatency = rcLat * sim.Nanosecond
		s := buildValidation(t, cfg)
		res, err := s.MMIOProbe(16)
		if err != nil {
			t.Fatal(err)
		}
		if res.Min != res.Max {
			t.Errorf("rc=%vns: MMIO latency jitter %v..%v in an idle system", rcLat, res.Min, res.Max)
		}
		if res.Avg() <= prev {
			t.Errorf("rc=%vns: avg %v not monotonically increasing", rcLat, res.Avg())
		}
		// Both request and response cross the RC: +25ns RC latency must
		// cost more than +25ns of MMIO latency (§VI-B Table II).
		if prev != 0 {
			delta := res.Avg() - prev
			if delta <= 50*sim.Nanosecond*1/2 {
				t.Errorf("rc step +50ns produced only +%v", delta)
			}
		}
		prev = res.Avg()
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (kernel.DDResult, uint64) {
		s := buildValidation(t, DefaultConfig())
		res, err := s.RunDD(256 << 10)
		if err != nil {
			t.Fatal(err)
		}
		return res, s.Eng.Fired()
	}
	r1, e1 := run()
	r2, e2 := run()
	if r1.Elapsed != r2.Elapsed || e1 != e2 {
		t.Errorf("non-deterministic: %v/%d vs %v/%d", r1.Elapsed, e1, r2.Elapsed, e2)
	}
}

func TestMSIExtension(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableMSI = true
	s := buildValidation(t, cfg)
	if _, err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	h := s.NICDriver.Handle
	if h.IntMode != kernel.IntModeMSI {
		t.Fatalf("interrupt mode = %v, want MSI on the extended platform", h.IntMode)
	}
	if h.IRQ < 64 {
		t.Errorf("MSI vector %d should be above the legacy lines", h.IRQ)
	}
	// The disk still uses legacy INTx (its MSI capability stays inert),
	// so dd must keep working alongside.
	if _, err := s.RunDD(256 << 10); err != nil {
		t.Fatal(err)
	}

	// Drive a NIC transmit; completion must arrive as a posted message
	// write through the fabric, not the INTx callback.
	legacyFired := false
	s.NICs[0].Dev.OnInterrupt = func() { legacyFired = true }
	desc := make([]byte, devices.NICDescSize)
	binary.LittleEndian.PutUint64(desc, DRAMBase+0x200000) // frame buffer
	binary.LittleEndian.PutUint16(desc[8:], 256)           // frame length
	s.DRAM.WriteFunctional(DRAMBase+0x100000, desc)
	before := s.NICDriver.InterruptCount
	task := s.CPU.Spawn("tx", 0, func(tk *kernel.Task) {
		tk.Write32(h.BAR0+devices.NICRegTDBAL, uint32(DRAMBase+0x100000))
		tk.Write32(h.BAR0+devices.NICRegTDLEN, 4*devices.NICDescSize)
		tk.Write32(h.BAR0+devices.NICRegIMS, devices.NICIntTxDone)
		tk.Write32(h.BAR0+devices.NICRegTDT, 1)
		tk.Delay(100 * sim.Microsecond) // let the MSI land
	})
	s.Eng.Run()
	if !task.Done() {
		t.Fatal("tx task wedged")
	}
	if legacyFired {
		t.Error("legacy INTx fired despite MSI being enabled")
	}
	if s.MSI.Delivered() == 0 {
		t.Fatal("no MSI reached the doorbell frame")
	}
	if s.NICDriver.InterruptCount <= before {
		t.Error("MSI vector handler did not run")
	}
}

func TestMSIDisabledKeepsPaperBehaviour(t *testing.T) {
	s := buildValidation(t, DefaultConfig())
	if _, err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	if s.NICDriver.Handle.IntMode != kernel.IntModeLegacy {
		t.Error("without EnableMSI the §IV legacy fallback must hold")
	}
	if s.MSI != nil {
		t.Error("no MSI frame expected on the baseline platform")
	}
}

func TestNICTransmitWorkload(t *testing.T) {
	s := buildValidation(t, DefaultConfig())
	res, err := s.RunNICTx(32, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 32 || res.Bytes != 32*1500 {
		t.Fatalf("result %v", res)
	}
	tx, txBytes, _ := s.NICs[0].Dev.Stats()
	if tx != 32 || txBytes != 32*1500 {
		t.Errorf("NIC stats %d/%d", tx, txBytes)
	}
	// The gigabit wire is the intended bottleneck: 1500B at 1 Gb/s is
	// 12us; with interrupt-per-frame overheads the goodput lands below
	// the line rate but within a factor of two.
	if g := res.ThroughputGbps(); g < 0.3 || g > 1.0 {
		t.Errorf("TX throughput %.3f Gb/s implausible for a gigabit NIC", g)
	}
}

func TestConcurrentDDAndNICTx(t *testing.T) {
	// Both devices active at once: disk DMA through the switch and NIC
	// descriptor/frame DMA through root port 1 contend for the IOCache
	// and MemBus. Everything must complete, deterministically.
	cfg := DefaultConfig()
	cfg.DD.StartupOverhead = 0
	s := buildValidation(t, cfg)
	if _, err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	var dd kernel.DDResult
	var nic kernel.NICTxResult
	var err1, err2 error
	ddCfg := cfg.DD
	ddCfg.BlockBytes = 512 << 10
	s.CPU.Spawn("dd", 0, func(tk *kernel.Task) {
		dd, err1 = kernel.RunDD(tk, s.DiskDriver.Handle, ddCfg)
	})
	s.CPU.Spawn("nictx", 0, func(tk *kernel.Task) {
		nic, err2 = s.NICDriver.RunNICTx(tk, kernel.NICTxConfig{
			RingAddr: DRAMBase + (160 << 20),
			BufAddr:  DRAMBase + (161 << 20),
			FrameLen: 1500,
			Frames:   16,
		})
	})
	s.Eng.Run()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if dd.Bytes != 512<<10 || nic.Frames != 16 {
		t.Fatalf("dd %v, nic %v", dd, nic)
	}
}

// faultedConfig arms every containment mechanism the way an error
// exploration run would, with plan on the disk link: RC completion
// timeout, driver command watchdog, and device DMA timeout.
func faultedConfig(plan *fault.Plan) Config {
	cfg := DefaultConfig()
	cfg.CompletionTimeout = 100 * sim.Microsecond
	cfg.DiskCmdTimeout = 2 * sim.Millisecond
	cfg.DiskDMATimeout = 500 * sim.Microsecond
	cfg.Faults = map[string]*fault.Plan{"disklink": plan}
	return cfg
}

// midDDTick returns an absolute tick shortly after a RunDD's first
// requests start flowing: boot time measured on a throwaway system
// (boot is deterministic), plus dd's fixed startup, plus roughly two
// clean requests' worth of slack.
func midDDTick(t *testing.T) sim.Tick {
	t.Helper()
	s := buildValidation(t, DefaultConfig())
	if _, err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	return s.Eng.Now() + DefaultConfig().DD.StartupOverhead + sim.Millisecond
}

// Deadlock regression (whole platform): a disk link that dies for good
// mid-transfer must leave dd degraded but finished — errored requests
// counted, AER state latched on the device, kernel AER log naming it,
// and the event queue drained rather than a hung Engine.Run.
func TestDeadDiskLinkDegradesNotDeadlocks(t *testing.T) {
	s := buildValidation(t, faultedConfig(&fault.Plan{
		Windows: []fault.Window{{At: midDDTick(t), Duration: 0}}, // permanent
	}))
	res, err := s.RunDD(2 << 20)
	if err != nil {
		t.Fatalf("dd must complete on a dead link, got error: %v", err)
	}
	// Drain whatever the dead link left behind; a livelocked queue
	// fails this test by the go test timeout.
	s.Eng.Run()
	if !s.Eng.Drained() {
		t.Fatal("event queue not drained")
	}
	if !diskLink(s).Link.Dead() {
		t.Fatal("disk link should be dead")
	}
	if res.Requests != 16 {
		t.Errorf("dd must still attempt all 16 requests, got %d", res.Requests)
	}
	if res.Errors == 0 || res.Errors == res.Requests {
		t.Errorf("want a mix of clean and errored requests, got %d/%d errored",
			res.Errors, res.Requests)
	}

	// AER: the dead link latched surprise-down at the device end.
	diskBDF := s.DiskDriver.Handle.Dev.BDF
	if s.Disks[0].Dev.AER().UncorrectableStatus()&pci.AERUncSurpriseDown == 0 {
		t.Error("disk AER must latch SurpriseDown")
	}
	recs, err := s.ScanAER()
	if err != nil {
		t.Fatalf("AER scan: %v", err)
	}
	var diskRec *kernel.AERRecord
	for i := range recs {
		if recs[i].BDF == diskBDF {
			diskRec = &recs[i]
		}
	}
	if diskRec == nil {
		t.Fatalf("AER log has no record for the disk at %v: %v", diskBDF, recs)
	}
	if diskRec.Uncorrectable&pci.AERUncSurpriseDown == 0 {
		t.Errorf("disk AER record lacks SurpriseDown: %v", diskRec)
	}
	if !strings.Contains(diskRec.String(), "SurpriseDownError") {
		t.Errorf("kernel log line must name the error: %q", diskRec.String())
	}
	// The scan is RW1C: a second scan finds nothing pending.
	recs2, err := s.ScanAER()
	if err != nil {
		t.Fatalf("second AER scan: %v", err)
	}
	for _, r := range recs2 {
		if r.BDF == diskBDF {
			t.Errorf("disk AER status must be clear after the first scan, got %v", r)
		}
	}
}

// A transient link-down window retrains and the workload completes
// clean: the replay protocol resends everything lost in the window.
func TestTransientDiskLinkDownRetrains(t *testing.T) {
	s := buildValidation(t, faultedConfig(&fault.Plan{
		Windows:        []fault.Window{{At: midDDTick(t), Duration: 50 * sim.Microsecond}},
		RetrainLatency: 20 * sim.Microsecond,
	}))
	res, err := s.RunDD(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	l := diskLink(s).Link
	if got := l.Retrains(); got != 1 {
		t.Errorf("retrains = %d, want 1", got)
	}
	if l.Dead() {
		t.Error("link must be back up")
	}
	if res.Errors != 0 {
		t.Errorf("%d errored requests; a retrained link must lose nothing", res.Errors)
	}
	if res.Bytes != 2<<20 {
		t.Errorf("moved %d bytes", res.Bytes)
	}
}

// Stochastic corruption on the disk link (TLPs and DLLPs plus drops)
// degrades throughput but never correctness, and the DLLP path shows up
// in the new counters.
func TestStochasticFaultsDegradeNotCorrupt(t *testing.T) {
	clean := buildValidation(t, DefaultConfig())
	cleanRes, err := clean.RunDD(1 << 20)
	if err != nil {
		t.Fatal(err)
	}

	rates := fault.Rates{TLPCorrupt: 0.02, DLLPCorrupt: 0.02, Drop: 0.01}
	s := buildValidation(t, faultedConfig(&fault.Plan{
		Seed: 7,
		Up:   fault.Profile{Rates: rates},
		Down: fault.Profile{Rates: rates},
	}))
	res, err := s.RunDD(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != cleanRes.Bytes || res.Errors != 0 {
		t.Fatalf("corruption must be recovered by replay: %v", res)
	}
	if res.Elapsed <= cleanRes.Elapsed {
		t.Errorf("faulted run (%v) should be slower than clean (%v)", res.Elapsed, cleanRes.Elapsed)
	}
	var sum LinkErrorSummary
	for _, l := range s.LinkErrors() {
		if l.Name == "disklink" {
			sum = l
		}
	}
	if sum.Up.CRCErrors+sum.Down.CRCErrors == 0 {
		t.Error("no TLP CRC errors recorded")
	}
	if sum.Up.BadDLLPs+sum.Down.BadDLLPs == 0 {
		t.Error("no corrupted DLLPs recorded")
	}
	if sum.Up.Dropped+sum.Down.Dropped == 0 {
		t.Error("no wire drops recorded")
	}
	corr, _ := s.Disks[0].Dev.AER().Totals()
	if corr == 0 {
		t.Error("correctable errors must be latched into the disk AER")
	}
}

// Any FaultPlan run twice under a fixed seed produces identical stats,
// tick for tick (the replayability acceptance criterion).
func TestFaultPlanDeterminism(t *testing.T) {
	at := midDDTick(t)
	run := func() (kernel.DDResult, []LinkErrorSummary, uint64) {
		rates := fault.Rates{TLPCorrupt: 0.05, DLLPCorrupt: 0.05, Drop: 0.02}
		s := buildValidation(t, faultedConfig(&fault.Plan{
			Seed: 1234,
			Up:   fault.Profile{Rates: rates},
			Down: fault.Profile{Rates: rates},
			Windows: []fault.Window{
				{At: at, Duration: 30 * sim.Microsecond},
			},
			RetrainLatency: 10 * sim.Microsecond,
		}))
		res, err := s.RunDD(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		return res, s.LinkErrors(), s.Eng.Fired()
	}
	r1, l1, e1 := run()
	r2, l2, e2 := run()
	if r1 != r2 || e1 != e2 || !reflect.DeepEqual(l1, l2) {
		t.Fatalf("faulted run is not deterministic:\n%v / %d\n%v / %d\n%v\n%v",
			r1, e1, r2, e2, l1, l2)
	}
}

// TestCalibrationReport prints the key experiment numbers. Run with
//
//	go test ./internal/topo -run TestCalibrationReport -v -calibrate
//
// It is skipped in normal runs (it is a tuning tool, not a test).
func TestCalibrationReport(t *testing.T) {
	if !*calibrate {
		t.Skip("pass -calibrate to print the tuning report")
	}
	// Blocks are scaled down 16x from the paper's 64 MiB, with the
	// fixed startup overhead scaled identically — the dd throughput
	// curve depends only on their ratio, so the scaling is exact.
	block := uint64(4 << 20)
	scaled := func() Config {
		cfg := DefaultConfig()
		cfg.DD.StartupOverhead /= 16
		return cfg
	}
	// widened is the validation spec with the uplink and disk link at w
	// lanes — Fig 9(b)'s all-link width sweep.
	widened := func(w int) *Spec {
		spec := Validation()
		spec.Link("uplink").Width = w
		spec.Link("disklink").Width = w
		return spec
	}
	// The sweeps report the disk link's upstream (disk -> switch)
	// direction, where the paper measures timeout and replay rates.
	runDD := func(spec *Spec, cfg Config) (*System, kernel.DDResult) {
		s := buildSpec(t, spec, cfg)
		res, err := s.RunDD(block)
		if err != nil {
			t.Fatal(err)
		}
		return s, res
	}

	fmt.Println("== Fig 9(a): baseline (x4 uplink, x1 disk), switch latency sweep ==")
	for _, lat := range []sim.Tick{50, 100, 150} {
		cfg := scaled()
		cfg.SwitchLatency = lat * sim.Nanosecond
		s, res := runDD(Validation(), cfg)
		fmt.Printf("  switch=%dns: %.3f Gbps  (dev-window %v)\n", lat, res.ThroughputGbps(), s.Disks[0].Dev.DMAWindow())
	}

	fmt.Println("== Fig 9(b): all-link width sweep ==")
	for _, w := range []int{1, 2, 4, 8} {
		s, res := runDD(widened(w), scaled())
		st := diskLink(s).Link.Down().Stats()
		fmt.Printf("  x%d: %.3f Gbps  replay=%.1f%% timeout=%.1f%%\n",
			w, res.ThroughputGbps(), st.ReplayRate()*100, st.TimeoutRate()*100)
	}

	fmt.Println("== Fig 9(c): x8, replay buffer sweep ==")
	for _, rb := range []int{1, 2, 3, 4} {
		cfg := scaled()
		cfg.ReplayBufferSize = rb
		s, res := runDD(widened(8), cfg)
		st := diskLink(s).Link.Down().Stats()
		fmt.Printf("  rb=%d: %.3f Gbps  timeout=%.1f%%\n", rb, res.ThroughputGbps(), st.TimeoutRate()*100)
	}

	fmt.Println("== Fig 9(d): x8, port buffer sweep ==")
	for _, pb := range []int{16, 20, 24, 28} {
		cfg := scaled()
		cfg.PortBufferSize = pb
		s, res := runDD(widened(8), cfg)
		st := diskLink(s).Link.Down().Stats()
		fmt.Printf("  pb=%d: %.3f Gbps  timeout=%.1f%%\n", pb, res.ThroughputGbps(), st.TimeoutRate()*100)
	}

	fmt.Println("== Table II: MMIO read vs RC latency ==")
	for _, lat := range []sim.Tick{50, 75, 100, 125, 150} {
		cfg := DefaultConfig()
		cfg.RootComplexLatency = lat * sim.Nanosecond
		res, err := buildValidation(t, cfg).MMIOProbe(64)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("  rc=%dns: %v\n", lat, res.Avg())
	}

	fmt.Println("== device-level sector throughput (x1) ==")
	{
		s := buildValidation(t, DefaultConfig())
		if _, err := s.RunDD(1 << 20); err != nil {
			t.Fatal(err)
		}
		window := s.Disks[0].Dev.DMAWindow() // window of the final 128 KiB command
		sectors := 32
		gbps := float64(sectors) * 4096 * 8 / window.Seconds() / 1e9
		fmt.Printf("  %d sectors in %v = %.3f Gbps (paper: 3.072)\n", sectors, window, gbps)
	}
}
