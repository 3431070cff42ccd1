package topo

import (
	"fmt"

	"pciesim/internal/devices"
	"pciesim/internal/kernel"
	"pciesim/internal/pcie"
	"pciesim/internal/sim"
)

// runTask drives the engine until the spawned task completes (or the
// queue drains with it wedged), without fast-forwarding through fault
// windows armed past the task's completion.
func (s *System) runTask(t *kernel.Task) {
	s.Eng.RunWhile(func() bool { return !t.Done() })
}

// runInTask boots if necessary, then runs fn as the kernel task name to
// completion. fn's error is returned as is; a task that never finished
// fails with the caller's wedged message.
func (s *System) runInTask(name, wedged string, fn func(t *kernel.Task) error) error {
	if _, err := s.Boot(); err != nil {
		return err
	}
	var runErr error
	task := s.CPU.Spawn(name, 0, func(t *kernel.Task) { runErr = fn(t) })
	s.runTask(task)
	if runErr != nil {
		return runErr
	}
	if !task.Done() {
		return fmt.Errorf("topo: %s", wedged)
	}
	return nil
}

// Boot runs enumeration and driver probes to completion and checks
// that every disk and NIC endpoint the spec declared was bound by its
// driver. Test devices are driverless by design and are only checked
// for discovery.
func (s *System) Boot() (*kernel.Topology, error) {
	if s.booted {
		return s.Kernel.Topo, nil
	}
	var bootErr error
	t := s.CPU.Spawn("boot", 0, func(t *kernel.Task) {
		bootErr = s.Kernel.Boot(t)
		if bootErr == nil && s.Recovery != nil {
			s.Recovery.Arm(t)
		}
	})
	s.runTask(t)
	if bootErr != nil {
		return nil, bootErr
	}
	if !t.Done() {
		return nil, fmt.Errorf("topo: boot task did not complete")
	}
	for _, d := range s.Disks {
		if s.DiskDriver.HandleFor(d.BDF) == nil {
			return nil, fmt.Errorf("topo: disk %q at %v did not bind", d.Name, d.BDF)
		}
	}
	for _, n := range s.NICs {
		if s.NICDriver.HandleFor(n.BDF) == nil {
			return nil, fmt.Errorf("topo: nic %q at %v did not bind", n.Name, n.BDF)
		}
	}
	for _, td := range s.TestDevs {
		found := false
		for _, f := range s.Kernel.Topo.All {
			if f.BDF == td.BDF {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("topo: testdev %q at %v was not enumerated", td.Name, td.BDF)
		}
	}
	s.booted = true
	return s.Kernel.Topo, nil
}

// RunDD boots if necessary, then runs one dd block-read of blockBytes
// against the first disk.
func (s *System) RunDD(blockBytes uint64) (kernel.DDResult, error) {
	return s.runDD(blockBytes, false)
}

// RunDDWrite is RunDD with the direction flipped (`dd of=/dev/disk`):
// the disk DMA-reads the user buffer, so the payload travels in
// downstream read completions and is throttled by Cpl credits rather
// than Posted ones.
func (s *System) RunDDWrite(blockBytes uint64) (kernel.DDResult, error) {
	return s.runDD(blockBytes, true)
}

func (s *System) runDD(blockBytes uint64, write bool) (kernel.DDResult, error) {
	if len(s.Disks) == 0 {
		return kernel.DDResult{}, fmt.Errorf("topo: no disk in topology %q", s.Spec.Name)
	}
	cfg := s.Cfg.DD
	cfg.BlockBytes = blockBytes
	cfg.Write = write
	var res kernel.DDResult
	err := s.runInTask("dd", "dd task wedged (lost wakeup?)", func(t *kernel.Task) (err error) {
		res, err = kernel.RunDD(t, s.DiskDriver.HandleFor(s.Disks[0].BDF), cfg)
		return err
	})
	if err != nil {
		return kernel.DDResult{}, err
	}
	return res, nil
}

// DDAllResult reports a concurrent dd run across every disk.
type DDAllResult struct {
	// PerDisk holds each disk's result, in topology (bus) order.
	PerDisk []kernel.DDResult
	// SectorsAtFirstExit is each disk's completed-sector count sampled
	// at the instant the first dd task finished — the window where all
	// disks were still contending, which is what arbitration fairness
	// is measured on.
	SectorsAtFirstExit []uint64
	// Elapsed is the time from launch until the last task finished.
	Elapsed sim.Tick
}

// AggregateThroughputGbps sums the per-disk payload over the full run.
func (r DDAllResult) AggregateThroughputGbps() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	var bytes uint64
	for _, d := range r.PerDisk {
		bytes += d.Bytes
	}
	return float64(bytes) * 8 / r.Elapsed.Seconds() / 1e9
}

// FairnessSpread is max/min of SectorsAtFirstExit — 1.0 is perfectly
// fair arbitration for the shared uplink.
func (r DDAllResult) FairnessSpread() float64 {
	if len(r.SectorsAtFirstExit) == 0 {
		return 0
	}
	minS, maxS := r.SectorsAtFirstExit[0], r.SectorsAtFirstExit[0]
	for _, v := range r.SectorsAtFirstExit[1:] {
		if v < minS {
			minS = v
		}
		if v > maxS {
			maxS = v
		}
	}
	if minS == 0 {
		return float64(maxS)
	}
	return float64(maxS) / float64(minS)
}

// RunDDAll boots if necessary, then runs one dd block-read of
// blockBytes on every disk concurrently, each into its own DRAM buffer.
// The per-disk sector counts are snapshotted when the first task exits.
func (s *System) RunDDAll(blockBytes uint64) (DDAllResult, error) {
	if _, err := s.Boot(); err != nil {
		return DDAllResult{}, err
	}
	n := len(s.Disks)
	if n == 0 {
		return DDAllResult{}, fmt.Errorf("topo: no disk in topology %q", s.Spec.Name)
	}
	start := s.Eng.Now()
	results := make([]kernel.DDResult, n)
	errs := make([]error, n)
	tasks := make([]*kernel.Task, n)
	for i := range s.Disks {
		i := i
		h := s.DiskDriver.HandleFor(s.Disks[i].BDF)
		cfg := s.Cfg.DD
		cfg.BlockBytes = blockBytes
		// Disjoint 64 MiB buffer windows, wrapping inside DRAM.
		cfg.BufAddr = s.Cfg.DD.BufAddr + uint64(i%24)*(64<<20)
		tasks[i] = s.CPU.Spawn(fmt.Sprintf("dd.%s", s.Disks[i].Name), 0, func(t *kernel.Task) {
			results[i], errs[i] = kernel.RunDD(t, h, cfg)
		})
	}
	anyDone := func() bool {
		for _, t := range tasks {
			if t.Done() {
				return true
			}
		}
		return false
	}
	s.Eng.RunWhile(func() bool { return !anyDone() })
	snap := make([]uint64, n)
	for i, d := range s.Disks {
		_, sectors := d.Dev.Stats()
		snap[i] = sectors
	}
	allDone := func() bool {
		for _, t := range tasks {
			if !t.Done() {
				return false
			}
		}
		return true
	}
	s.Eng.RunWhile(func() bool { return !allDone() })
	for i, t := range tasks {
		if !t.Done() {
			return DDAllResult{}, fmt.Errorf("topo: dd task %d wedged", i)
		}
		if errs[i] != nil {
			return DDAllResult{}, fmt.Errorf("topo: dd on %s: %w", s.Disks[i].Name, errs[i])
		}
	}
	return DDAllResult{
		PerDisk:            results,
		SectorsAtFirstExit: snap,
		Elapsed:            s.Eng.Now() - start,
	}, nil
}

// RunP2P boots if necessary, then drives peer-to-peer DMA from the
// first disk into the scratch half of a peer BAR — the first NIC's
// BAR0 if the topology has one, else the first test device's. Whether
// the traffic turns at a shared switch or reflects off the root
// complex depends on the topology and Config.NoP2P; Turnarounds and
// Reflections report which path it took.
func (s *System) RunP2P(commands int, sectorsPerCmd uint32) (kernel.P2PResult, error) {
	if _, err := s.Boot(); err != nil {
		return kernel.P2PResult{}, err
	}
	if len(s.Disks) == 0 {
		return kernel.P2PResult{}, fmt.Errorf("topo: no disk in topology %q", s.Spec.Name)
	}
	if sectorsPerCmd == 0 {
		sectorsPerCmd = 1
	}
	h := s.DiskDriver.HandleFor(s.Disks[0].BDF)
	var barAddr, barSize uint64
	switch {
	case len(s.NICs) > 0:
		nh := s.NICDriver.HandleFor(s.NICs[0].BDF)
		barAddr, barSize = nh.BAR0, nh.Dev.BARs[0].Size
	case len(s.TestDevs) > 0:
		td := s.TestDevs[0]
		barAddr, barSize = td.Dev.BAR0().Addr(), s.Cfg.TestDev.BARSize
	default:
		return kernel.P2PResult{}, fmt.Errorf("topo: no peer endpoint (nic or testdev) in topology %q", s.Spec.Name)
	}
	// Target the upper half of the BAR: register-free scratch space.
	target := barAddr + barSize/2
	if uint64(sectorsPerCmd)*uint64(h.SectorSize) > barSize-barSize/2 {
		return kernel.P2PResult{}, fmt.Errorf("topo: %d sectors/cmd does not fit in the peer BAR's %d-byte scratch half",
			sectorsPerCmd, barSize-barSize/2)
	}
	cfg := kernel.P2PConfig{
		Commands:           commands,
		SectorsPerCmd:      sectorsPerCmd,
		TargetAddr:         target,
		PerCommandOverhead: s.Cfg.DD.PerRequestOverhead,
	}
	var res kernel.P2PResult
	err := s.runInTask("p2p", "p2p task wedged", func(t *kernel.Task) (err error) {
		res, err = kernel.RunP2P(t, h, cfg)
		return err
	})
	if err != nil {
		return kernel.P2PResult{}, err
	}
	return res, nil
}

// MMIOProbe boots if necessary, then measures n 4-byte reads of the
// first NIC's status register.
func (s *System) MMIOProbe(n int) (kernel.MMIOProbeResult, error) {
	if len(s.NICs) == 0 {
		return kernel.MMIOProbeResult{}, fmt.Errorf("topo: no NIC in topology %q", s.Spec.Name)
	}
	var res kernel.MMIOProbeResult
	err := s.runInTask("mmioprobe", "probe task wedged", func(t *kernel.Task) error {
		res = kernel.MMIOProbe(t, s.NICDriver.Handle.BAR0+devices.NICRegStatus, n)
		return nil
	})
	return res, err
}

// RunNICTx boots if necessary, then transmits frames through the first
// NIC's descriptor ring.
func (s *System) RunNICTx(frames, frameLen int) (kernel.NICTxResult, error) {
	if len(s.NICs) == 0 {
		return kernel.NICTxResult{}, fmt.Errorf("topo: no NIC in topology %q", s.Spec.Name)
	}
	cfg := kernel.NICTxConfig{
		RingAddr:         DRAMBase + (160 << 20),
		RingEntries:      64,
		BufAddr:          DRAMBase + (161 << 20),
		FrameLen:         frameLen,
		Frames:           frames,
		PerFrameOverhead: 500 * sim.Nanosecond,
	}
	var res kernel.NICTxResult
	err := s.runInTask("nictx", "nictx task wedged", func(t *kernel.Task) (err error) {
		res, err = s.NICDriver.RunNICTx(t, cfg)
		return err
	})
	if err != nil {
		return kernel.NICTxResult{}, err
	}
	return res, nil
}

// ScanAER runs the kernel's AER service handler in task context.
func (s *System) ScanAER() ([]kernel.AERRecord, error) {
	var recs []kernel.AERRecord
	err := s.runInTask("aerscan", "AER scan task wedged", func(t *kernel.Task) error {
		recs = s.Kernel.HandleAER(t)
		return nil
	})
	return recs, err
}

// LinkErrorSummary aggregates the error-containment counters of one
// link, combining both directions.
type LinkErrorSummary struct {
	Name     string
	Up, Down pcie.LinkStats
	Retrains uint64
	Dead     bool
}

// LinkErrors reports per-link error and recovery counters for every
// fabric link, in topology (bus) order.
func (s *System) LinkErrors() []LinkErrorSummary {
	out := make([]LinkErrorSummary, 0, len(s.Links))
	for _, li := range s.Links {
		out = append(out, LinkErrorSummary{
			Name:     li.Name,
			Up:       li.Link.Up().Stats(),
			Down:     li.Link.Down().Stats(),
			Retrains: li.Link.Retrains(),
			Dead:     li.Link.Dead(),
		})
	}
	return out
}
