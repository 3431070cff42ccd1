package topo

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"pciesim/internal/bridge"
	"pciesim/internal/cache"
	"pciesim/internal/devices"
	"pciesim/internal/fault"
	"pciesim/internal/kernel"
	"pciesim/internal/mem"
	"pciesim/internal/memctrl"
	"pciesim/internal/pci"
	"pciesim/internal/pcie"
	"pciesim/internal/sim"
	"pciesim/internal/xbar"
)

// Address map of the modeled ARM Vexpress_GEM5_V1 platform (§III).
const (
	ConfigBase = 0x30000000
	ConfigSize = 256 << 20
	IOBase     = 0x2f000000
	IOSize     = 16 << 20
	MMIOBase   = 0x40000000
	MMIOSize   = 1 << 30
	DRAMBase   = 0x80000000 // "DRAM is mapped to addresses from 2GB"
	DRAMSize   = 2 << 30
	// MSIFrameBase is the on-chip MSI doorbell frame (GICv2m-style),
	// present when Config.EnableMSI is set.
	MSIFrameBase = 0x2c1f0000
	MSIFrameSize = 4096
)

// Config holds every topology-independent knob of the platform: the
// fabric latencies and buffer sizes, the substrate calibration, and the
// OS model. Per-link width/generation/fault live in the Spec (widths,
// gens) and the Faults map (fault plans, keyed by link name).
type Config struct {
	// --- PCI-Express fabric ---

	// RootComplexLatency is the RC processing latency.
	RootComplexLatency sim.Tick
	// SwitchLatency is the switch store-and-forward latency.
	SwitchLatency sim.Tick
	// PortBufferSize is the root/switch per-port buffer in packets.
	PortBufferSize int
	// ReplayBufferSize is the link-interface replay buffer.
	ReplayBufferSize int
	// Gen is the default link generation for links whose spec leaves
	// Gen zero.
	Gen pcie.Generation
	// PropDelay is the per-direction propagation delay of every link's
	// physical medium — zero for the baseline's short electrical traces,
	// hundreds of nanoseconds for the cabled/retimed links of the
	// future-system experiments, where it sets the bandwidth-delay
	// product that flow-control credits must cover.
	PropDelay sim.Tick
	// Seed seeds fault injection.
	Seed uint64
	// NoP2P disables peer-to-peer turnaround in every switch: requests
	// between sibling endpoints are forced up to the root complex and
	// reflect off it. The default (false) lets switches turn peer
	// traffic around locally.
	NoP2P bool
	// Credits enables transaction-layer credit-based flow control on
	// every link: each endpoint interface advertises this VC0 pool,
	// and router-side interfaces advertise it capped at their real
	// queue depths. The zero value keeps every link in the legacy
	// infinite-credit mode (bit-identical to the pre-FC simulator).
	// Per-link overrides live in the spec (LinkSpec.Credits).
	Credits pcie.CreditConfig

	// --- error containment & recovery ---

	// Faults attaches deterministic fault plans to links by link name
	// (LinkSpec.Name; "<node>.link" when auto-named). A plan set
	// directly in the spec wins over this map; a key that names no link
	// fails Build.
	Faults map[string]*fault.Plan
	// CompletionTimeout arms the root complex's completion timer; zero
	// disables it.
	CompletionTimeout sim.Tick
	// DiskCmdTimeout bounds the block driver's wait for a command
	// interrupt; zero waits forever.
	DiskCmdTimeout sim.Tick
	// DiskDMATimeout bounds the disk DMA engine's per-transfer
	// in-flight time; zero disables.
	DiskDMATimeout sim.Tick
	// EnableMSI adds the MSI doorbell frame and makes NIC MSI
	// enableable.
	EnableMSI bool
	// EnableDPC adds the Downstream Port Containment extended
	// capability to every slot-implemented fabric port, instantiates
	// the kernel recovery manager, and arms containment at boot. Off by
	// default: existing platforms stay bit-identical.
	EnableDPC bool
	// Recovery tunes the kernel's DPC/hot-plug recovery driver
	// (zero-value fields take defaults). Only meaningful with EnableDPC.
	Recovery kernel.RecoveryConfig
	// Degrade arms adaptive link degradation on every link: sustained
	// error windows retrain the link at reduced width/generation, with
	// exponential-backoff upgrade retrains back toward the configured
	// level. Nil leaves degradation off (links with scheduled Downtrain
	// faults still self-arm the default policy). Per-link overrides
	// live in the spec (LinkSpec.Degrade).
	Degrade *pcie.DegradeConfig

	// --- substrate ---

	MemBusFrontend sim.Tick
	MemBusResponse sim.Tick
	MemBusPerByte  sim.Tick
	IOBusLatency   sim.Tick
	BridgeDelay    sim.Tick
	PCIHostLatency sim.Tick
	IOCache        cache.Config
	DRAM           memctrl.Config
	Disk           devices.DiskConfig
	NIC            devices.NICConfig
	NICPIOLatency  sim.Tick
	TestDev        devices.TestDevConfig

	// --- OS model ---

	IRQLatency sim.Tick
	DD         kernel.DDConfig

	// --- parallel engine ---

	// Domains requests conservative parallel simulation with this many
	// timing domains (the -par flag): 0 or 1 runs the classic serial
	// engine. The partitioner cuts the fabric at link boundaries into
	// at most Domains domains (root substrate in domain 0) and may use
	// fewer when the topology has fewer cuttable subtrees; topologies
	// or configurations it cannot cut safely fall back to serial.
	// Results are deterministic and stats dumps byte-identical to the
	// serial engine either way.
	Domains int
}

// DefaultConfig is the calibrated baseline of DESIGN.md §5; every
// experiment in EXPERIMENTS.md starts from it.
func DefaultConfig() Config {
	return Config{
		RootComplexLatency: 150 * sim.Nanosecond,
		SwitchLatency:      150 * sim.Nanosecond,
		PortBufferSize:     16,
		ReplayBufferSize:   4,
		Gen:                pcie.Gen2,

		MemBusFrontend: 10 * sim.Nanosecond,
		MemBusResponse: 10 * sim.Nanosecond,
		MemBusPerByte:  62, // ~16 GB/s data path
		IOBusLatency:   20 * sim.Nanosecond,
		BridgeDelay:    25 * sim.Nanosecond,
		PCIHostLatency: 100 * sim.Nanosecond,
		IOCache: cache.Config{
			Size:         1024,
			LineSize:     64,
			Assoc:        4,
			TagLatency:   10 * sim.Nanosecond,
			MSHRs:        4,
			WriteBuffers: 8,
		},
		// The DRAM service rate is the I/O tree's drain limit: ~51 ns
		// per 64 B line (~11.4 Gb/s of DMA drain); see DESIGN.md §5.
		DRAM: memctrl.Config{
			Latency:        80 * sim.Nanosecond,
			PerByte:        800,
			MaxOutstanding: 16,
		},
		Disk:          devices.DefaultDiskConfig(),
		NIC:           devices.DefaultNICConfig(),
		NICPIOLatency: 110 * sim.Nanosecond,
		TestDev:       devices.DefaultTestDevConfig(),

		IRQLatency: 1 * sim.Microsecond,
		DD: kernel.DDConfig{
			RequestBytes:       128 * 1024,
			BufAddr:            DRAMBase + (64 << 20),
			StartupOverhead:    12 * sim.Millisecond,
			PerRequestOverhead: 5 * sim.Microsecond,
			PerSectorOverhead:  1300 * sim.Nanosecond,
			InterruptOverhead:  4 * sim.Microsecond,
		},
	}
}

// LinkInst is one instantiated link and the spec node below it.
type LinkInst struct {
	Name string
	Node *Node
	Link *pcie.Link
}

// SwitchInst is one instantiated switch.
type SwitchInst struct {
	Name string
	Node *Node
	Sw   *pcie.Switch
}

// DiskInst is one instantiated disk endpoint.
type DiskInst struct {
	Name string
	BDF  pci.BDF
	Dev  *devices.Disk
}

// NICInst is one instantiated NIC endpoint.
type NICInst struct {
	Name string
	BDF  pci.BDF
	Dev  *devices.NIC
}

// TestDevInst is one instantiated test endpoint.
type TestDevInst struct {
	Name string
	BDF  pci.BDF
	Dev  *devices.TestDev
}

// System is an assembled platform with an arbitrary fabric. The
// substrate (CPU, DRAM, buses, IOCache, PCI host) is identical to the
// validation platform's; the fabric below the root complex is whatever
// the Spec described.
type System struct {
	Spec *Spec
	Cfg  Config
	Plan *Plan
	Eng  *sim.Engine

	// PktPool recycles request packets for every requestor (CPU and all
	// DMA engines). Engine-local, never shared across simulations.
	PktPool *mem.Pool

	CPU    *kernel.CPU
	Kernel *kernel.Kernel

	MemBus  *xbar.XBar
	IOBus   *xbar.XBar
	Bridge  *bridge.Bridge
	IOCache *cache.Cache
	DRAM    *memctrl.Memory
	PCIHost *pci.Host

	// MSI is the doorbell frame, nil unless Cfg.EnableMSI.
	MSI *devices.MSIController

	RC *pcie.RootComplex

	// Fabric inventory, all in DFS (bus) order.
	Switches []*SwitchInst
	Links    []*LinkInst
	Disks    []*DiskInst
	NICs     []*NICInst
	TestDevs []*TestDevInst

	DiskDriver *kernel.DiskDriver
	NICDriver  *kernel.E1000eDriver

	// Recovery is the kernel's DPC/hot-plug service, nil unless
	// Cfg.EnableDPC.
	Recovery *kernel.RecoveryManager

	linkByName   map[string]*LinkInst
	dpcPorts     []dpcPort
	hotplugSaved map[pci.BDF]pci.ConfigAccessor
	booted       bool

	// Parallel-engine state: engines[0] == Eng always; len(engines) is
	// the domain count (1 = serial). part carries the node→domain map
	// used while building; pools are the per-domain packet pools
	// (pools[0] == PktPool).
	engines []*sim.Engine
	pools   []*mem.Pool
	part    *partition
}

// Domains returns the number of timing domains the system was built
// with: 1 for the serial engine.
func (s *System) Domains() int { return len(s.engines) }

// dpcPort pairs a containment-capable fabric port with its BDF, so the
// recovery manager's interrupt hook can be wired after the kernel
// exists.
type dpcPort struct {
	port *pcie.Port
	bdf  pci.BDF
}

// Build normalizes the spec, plans bus numbers, and assembles the
// platform. The simulation is ready to Boot.
func Build(spec *Spec, cfg Config) (*System, error) {
	if spec == nil {
		return nil, fmt.Errorf("topo: nil spec")
	}
	if cfg.Gen < pcie.Gen1 || cfg.Gen > pcie.Gen3 {
		return nil, fmt.Errorf("topo: link generation %d outside 1..3", cfg.Gen)
	}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if err := checkFaultLinks(spec, cfg.Faults); err != nil {
		return nil, err
	}
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}

	part, err := partitionSpec(spec, cfg)
	if err != nil {
		return nil, err
	}
	engines := make([]*sim.Engine, part.domains)
	for i := range engines {
		engines[i] = sim.NewEngine()
	}
	eng := engines[0]
	s := &System{
		Spec: spec, Cfg: cfg, Plan: plan, Eng: eng,
		PktPool:      mem.NewPool(),
		linkByName:   map[string]*LinkInst{},
		hotplugSaved: map[pci.BDF]pci.ConfigAccessor{},
		engines:      engines,
		part:         part,
	}
	s.pools = make([]*mem.Pool, part.domains)
	s.pools[0] = s.PktPool
	if part.domains > 1 {
		sim.NewCoordinator(part.quantum, engines...)
		rootReg := eng.Stats()
		for i := 1; i < part.domains; i++ {
			// Disjoint packet-ID spaces per domain: IDs only key maps
			// and traces, so the offset never shows in stats dumps.
			engines[i].SeedPacketIDs(uint64(i) << 48)
			rootReg.Attach(engines[i].Stats())
			s.pools[i] = mem.NewPool()
		}
		// Arm the per-pool allocation journals: the fold over them at
		// dump time reconstructs the counters one shared serial pool
		// would have reported.
		for i, p := range s.pools {
			e := engines[i]
			p.SetJournal(func() uint64 { return uint64(e.Now()) })
		}
	}

	// --- buses and memory ---
	s.MemBus = xbar.New(eng, "membus", xbar.Config{
		FrontendLatency: cfg.MemBusFrontend,
		ResponseLatency: cfg.MemBusResponse,
		PerByte:         cfg.MemBusPerByte,
	})
	s.IOBus = xbar.New(eng, "iobus", xbar.Config{
		FrontendLatency: cfg.IOBusLatency,
		ResponseLatency: cfg.IOBusLatency,
	})
	s.DRAM = memctrl.New(eng, "dram", mem.Range(DRAMBase, DRAMSize), cfg.DRAM)
	mem.Connect(s.MemBus.MasterPort("dram", mem.RangeList{s.DRAM.Range()}), s.DRAM.Port())

	if cfg.EnableMSI {
		s.MSI = devices.NewMSIController(eng, "msiframe", mem.Range(MSIFrameBase, MSIFrameSize))
		mem.Connect(s.MemBus.MasterPort("msiframe", mem.RangeList{s.MSI.Range()}), s.MSI.Port())
		// Doorbell writes from devices must bypass the IOCache.
		cfg.IOCache.Uncacheable = append(cfg.IOCache.Uncacheable, s.MSI.Range())
		s.Cfg.IOCache = cfg.IOCache
	}

	s.Bridge = bridge.New(eng, "iobridge", bridge.Config{
		Delay:     cfg.BridgeDelay,
		ReqDepth:  16,
		RespDepth: 16,
		Ranges:    mem.RangeList{mem.Range(ConfigBase, ConfigSize)},
	})
	mem.Connect(s.MemBus.MasterPort("iobridge", mem.RangeList{mem.Range(ConfigBase, ConfigSize)}),
		s.Bridge.SlavePort())
	mem.Connect(s.Bridge.MasterPort(), s.IOBus.SlavePort("iobridge"))

	s.PCIHost = pci.NewHost(eng, "pcihost", pci.HostConfig{
		ECAMWindow: mem.Range(ConfigBase, ConfigSize),
		Latency:    cfg.PCIHostLatency,
	})
	mem.Connect(s.IOBus.MasterPort("pcihost", mem.RangeList{s.PCIHost.Window()}), s.PCIHost.Port())

	// --- root complex ---
	rcCfg := pcie.RootComplexConfig{NumRootPorts: len(spec.RootPorts)}
	rcCfg.Latency = cfg.RootComplexLatency
	rcCfg.BufferSize = cfg.PortBufferSize
	rcCfg.CompletionTimeout = cfg.CompletionTimeout
	rcCfg.Credits = cfg.Credits
	rcCfg.EnableDPC = cfg.EnableDPC
	s.RC = pcie.NewRootComplex(eng, "rc", s.PCIHost, rcCfg)
	// CPU-visible PCI windows route from the MemBus into the RC.
	mem.Connect(s.MemBus.MasterPort("rc", mem.RangeList{
		mem.Range(MMIOBase, MMIOSize),
		mem.Range(IOBase, IOSize),
	}), s.RC.UpstreamSlave())

	// DMA drains through the IOCache onto the MemBus (§V-A).
	s.IOCache = cache.New(eng, "iocache", cfg.IOCache)
	mem.Connect(s.RC.UpstreamMaster(), s.IOCache.CPUSidePort())
	mem.Connect(s.IOCache.MemSidePort(), s.MemBus.SlavePort("iocache"))

	// --- fabric: DFS over the spec ---
	// Each AER capability is registered in the stats namespace under
	// the same names the hardwired platform used: "rc.rootport<i>",
	// "<switch>.upstream", "<switch>.downstream<j>", "<endpoint>".
	var aerList []struct {
		name string
		a    *pci.AER
	}
	addAER := func(name string, a *pci.AER) {
		aerList = append(aerList, struct {
			name string
			a    *pci.AER
		}{name, a})
	}
	for i, n := range spec.RootPorts {
		if n == nil {
			continue
		}
		if err := s.buildNode(eng, s.RC.RootPort(i), fmt.Sprintf("rc.rootport%d", i),
			pci.NewBDF(0, uint8(i), 0), n, cfg, plan, addAER); err != nil {
			return nil, err
		}
	}

	// Observability: per-function AER totals plus platform-wide
	// aggregates.
	r := eng.Stats()
	all := make([]*pci.AER, 0, len(aerList))
	for _, e := range aerList {
		a := e.a
		all = append(all, a)
		r.CounterFunc("aer."+e.name+".correctable",
			func() uint64 { c, _ := a.Totals(); return c })
		r.CounterFunc("aer."+e.name+".uncorrectable",
			func() uint64 { _, u := a.Totals(); return u })
	}
	r.CounterFunc("aer.correctable", func() uint64 {
		var t uint64
		for _, a := range all {
			c, _ := a.Totals()
			t += c
		}
		return t
	})
	r.CounterFunc("aer.uncorrectable", func() uint64 {
		var t uint64
		for _, a := range all {
			_, u := a.Totals()
			t += u
		}
		return t
	})

	// Packet pool accounting. Serial reads the single pool directly;
	// parallel folds the per-domain allocation journals into the
	// counters one shared pool would have reported.
	if part.domains > 1 {
		poolStats := func() mem.PoolStats { return mem.FoldPoolJournals(s.pools...) }
		r.CounterFunc("mem.pool.allocs", func() uint64 { return poolStats().Allocs })
		r.CounterFunc("mem.pool.reuses", func() uint64 { return poolStats().Reuses })
		r.CounterFunc("mem.pool.releases", func() uint64 { return poolStats().Releases })
		r.CounterFunc("mem.pool.live", func() uint64 { return poolStats().Live() })
	} else {
		r.CounterFunc("mem.pool.allocs", func() uint64 { return s.PktPool.Stats().Allocs })
		r.CounterFunc("mem.pool.reuses", func() uint64 { return s.PktPool.Stats().Reuses })
		r.CounterFunc("mem.pool.releases", func() uint64 { return s.PktPool.Stats().Releases })
		r.CounterFunc("mem.pool.live", func() uint64 { return s.PktPool.Stats().Live() })
	}
	r.CounterFunc("sim.events_recycled", func() uint64 {
		var t uint64
		for _, e := range s.engines {
			t += e.Recycled()
		}
		return t
	})

	// --- kernel ---
	s.CPU = kernel.NewCPU(eng, "cpu0")
	s.CPU.UsePacketPool(s.PktPool)
	s.CPU.IRQLatency = cfg.IRQLatency
	mem.Connect(s.CPU.Port(), s.MemBus.SlavePort("cpu0"))
	s.Kernel = kernel.New(s.CPU)
	s.Kernel.Enum.ECAMBase = ConfigBase
	s.Kernel.Enum.MemWindow = mem.Range(MMIOBase, MMIOSize)
	s.Kernel.Enum.IOWindow = mem.Range(IOBase, IOSize)
	if cfg.EnableMSI {
		s.Kernel.MSITarget = MSIFrameBase
		s.MSI.OnMSI = func(vector uint32) { s.CPU.TriggerIRQ(int(vector)) }
	}
	s.DiskDriver = &kernel.DiskDriver{CmdTimeout: cfg.DiskCmdTimeout}
	s.NICDriver = &kernel.E1000eDriver{}
	s.Kernel.RegisterDriver(s.DiskDriver)
	s.Kernel.RegisterDriver(s.NICDriver)

	// DPC: route every port's containment trigger into the kernel's
	// recovery service as the DPC interrupt.
	if cfg.EnableDPC {
		s.Recovery = kernel.NewRecoveryManager(s.Kernel, cfg.Recovery)
		for _, dp := range s.dpcPorts {
			dp := dp
			if d := dp.port.DPC(); d != nil {
				d.OnTrigger = func(reason uint16) { s.Recovery.Raise(dp.bdf, reason) }
			}
		}
	}
	return s, nil
}

// checkFaultLinks rejects fault plans keyed by a name that no link of
// the normalized spec carries: such a plan would never arm, leaving a
// run the caller asked to fault silently clean.
func checkFaultLinks(spec *Spec, faults map[string]*fault.Plan) error {
	if len(faults) == 0 {
		return nil
	}
	var links, unknown []string
	spec.walk(func(n *Node) { links = append(links, n.Link.Name) })
	for name := range faults {
		if !slices.Contains(links, name) {
			unknown = append(unknown, strconv.Quote(name))
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return fmt.Errorf("topo: fault plan for no link of topology %q: %s (links: %s)",
		spec.Name, strings.Join(unknown, ", "), strings.Join(links, ", "))
}

// engineFor returns the engine of the timing domain n was assigned
// to — the root engine for every node in a serial build.
func (s *System) engineFor(n *Node) *sim.Engine {
	if s.part == nil || s.part.domOf == nil {
		return s.Eng
	}
	return s.engines[s.part.domOf[n]]
}

// poolFor returns the packet pool of n's timing domain.
func (s *System) poolFor(n *Node) *mem.Pool {
	if s.part == nil || s.part.domOf == nil {
		return s.PktPool
	}
	return s.pools[s.part.domOf[n]]
}

// raiseIRQ raises a legacy interrupt line from a device running on
// devEng. In the device's own domain that is the CPU's ordinary
// TriggerIRQ; from another domain the dispatch is ferried to the
// CPU's domain pre-delayed by IRQLatency, so the handler fires at
// exactly the tick serial dispatch would have, with the same
// scheduling key.
func (s *System) raiseIRQ(devEng *sim.Engine, line int) {
	if devEng == s.Eng {
		s.CPU.TriggerIRQ(line)
		return
	}
	trig := devEng.Now()
	// kernel.IRQOrd is the dispatch's static tie-break, the same key
	// the serial TriggerIRQ path stamps, so simultaneous interrupts
	// from symmetric devices order identically in both configurations.
	devEng.CrossSchedule(s.Eng, s.CPU.IRQEventName(line), trig+s.Cfg.IRQLatency,
		sim.PriorityDefault, kernel.IRQOrd(line), func() { s.CPU.DispatchIRQ(line, trig) })
}

// buildNode instantiates the link from port down to node n and the
// subtree below it. port is the already-created fabric port (root port
// or switch downstream port), portAER its stats name, and portBDF the
// address its virtual bridge occupies (the recovery driver services
// containment by that address). portEng is the engine of the domain
// the port above runs in; when n's domain differs, the connecting
// link is built split across the two engines.
func (s *System) buildNode(portEng *sim.Engine, port *pcie.Port, portAERName string, portBDF pci.BDF,
	n *Node, cfg Config, plan *Plan, addAER func(string, *pci.AER)) error {
	lcfg := pcie.LinkConfig{
		Gen:              n.Link.Gen,
		Width:            n.Link.Width,
		PropDelay:        cfg.PropDelay,
		ReplayBufferSize: cfg.ReplayBufferSize,
		MaxPayload:       cfg.IOCache.LineSize,
		Seed:             cfg.Seed,
		Fault:            n.Link.Fault,
		Credits:          cfg.Credits,
		Degrade:          cfg.Degrade,
	}
	if n.Link.Degrade != nil {
		lcfg.Degrade = n.Link.Degrade
	}
	if lcfg.Gen == 0 {
		lcfg.Gen = cfg.Gen
	}
	if lcfg.Fault == nil {
		lcfg.Fault = cfg.Faults[n.Link.Name]
	}
	if n.Link.Credits != nil {
		lcfg.Credits = *n.Link.Credits
	}
	devEng := s.engineFor(n)
	// len(s.Links)+1 is this link's creation index (1-based so no
	// builder link shares ord 0 with un-keyed events) — the static
	// delivery tie-break, identical across serial and parallel builds
	// (see pcie.NewLinkSplit). NewLinkSplit degenerates to an ordinary
	// single-engine link when both ends share a domain.
	link := pcie.NewLinkSplit(portEng, devEng, n.Link.Name, uint64(len(s.Links))+1, lcfg)
	port.ConnectLink(link)
	if n.Link.Credits != nil {
		// ConnectLink advertised the platform-wide credits capped at
		// the port's queue depth; refine with the per-link override.
		link.Up().AdvertiseCredits(pcie.MinCredits(*n.Link.Credits,
			pcie.CreditsForQueueDepth(cfg.PortBufferSize)))
	}
	li := &LinkInst{Name: n.Link.Name, Node: n, Link: link}
	s.Links = append(s.Links, li)
	s.linkByName[li.Name] = li
	if cfg.EnableDPC {
		s.dpcPorts = append(s.dpcPorts, dpcPort{port: port, bdf: portBDF})
	}
	// Surprise hot-plug: removing this link takes the whole sub-tree
	// below it off the bus — its config spaces stop decoding (all-ones
	// reads, exactly like an empty slot) until re-insertion puts them
	// back at power-on defaults. The kernel's recovery driver then
	// replays the boot-time configuration.
	subtree := subtreeBDFs(n, plan)
	link.SetNotify(func(notice pcie.LinkNotice) {
		switch notice {
		case pcie.NoticeRemoved:
			for _, bdf := range subtree {
				if acc, ok := s.PCIHost.Lookup(bdf); ok {
					s.hotplugSaved[bdf] = acc
				}
				s.PCIHost.Unregister(bdf)
			}
		case pcie.NoticeReinserted:
			for _, bdf := range subtree {
				acc, ok := s.hotplugSaved[bdf]
				if !ok {
					continue
				}
				powerOnReset(acc)
				s.PCIHost.Register(bdf, acc)
			}
		}
	})

	// AER: each link interface reports into the function at its end —
	// the fabric port above, the switch/endpoint below.
	link.Up().SetAER(port.AER())
	addAER(portAERName, port.AER())

	switch n.Kind {
	case KindSwitch:
		b := plan.SwitchBus[n]
		swCfg := pcie.SwitchConfig{
			NumDownstreamPorts: len(n.Ports),
			UpstreamBus:        b.Upstream,
			InternalBus:        b.Internal,
			NoP2P:              cfg.NoP2P,
		}
		swCfg.Latency = cfg.SwitchLatency
		swCfg.BufferSize = cfg.PortBufferSize
		swCfg.Credits = cfg.Credits
		swCfg.EnableDPC = cfg.EnableDPC
		sw := pcie.NewSwitch(devEng, n.Name, s.PCIHost, swCfg)
		sw.ConnectUpstreamLink(link)
		if n.Link.Credits != nil {
			link.Down().AdvertiseCredits(pcie.MinCredits(*n.Link.Credits,
				pcie.CreditsForQueueDepth(cfg.PortBufferSize)))
		}
		link.Down().SetAER(sw.UpstreamPort().AER())
		addAER(n.Name+".upstream", sw.UpstreamPort().AER())
		s.Switches = append(s.Switches, &SwitchInst{Name: n.Name, Node: n, Sw: sw})
		for j, child := range n.Ports {
			if child == nil {
				continue
			}
			name := fmt.Sprintf("%s.downstream%d", n.Name, j)
			if err := s.buildNode(devEng, sw.DownstreamPort(j), name,
				pci.NewBDF(b.Internal, uint8(j), 0), child, cfg, plan, addAER); err != nil {
				return err
			}
		}

	case KindDisk:
		dcfg := cfg.Disk
		if cfg.DiskDMATimeout != 0 {
			dcfg.DMATimeout = cfg.DiskDMATimeout
		}
		d := devices.NewDisk(devEng, n.Name, dcfg)
		mem.Connect(link.Down().MasterPort(), d.PIOPort())
		mem.Connect(d.DMAPort(), link.Down().SlavePort())
		bdf := plan.EndpointBDF[n]
		s.PCIHost.Register(bdf, d.ConfigSpace())
		link.Down().SetAER(d.AER())
		addAER(n.Name, d.AER())
		d.UsePacketPool(s.poolFor(n))
		// Legacy INTx delivery; the IRQ line is known only after
		// enumeration, so resolve the handle by BDF at interrupt time.
		d.OnInterrupt = func() {
			if h := s.DiskDriver.HandleFor(bdf); h != nil {
				s.raiseIRQ(devEng, h.IRQ)
			}
		}
		s.Disks = append(s.Disks, &DiskInst{Name: n.Name, BDF: bdf, Dev: d})

	case KindNIC:
		ncfg := cfg.NIC
		ncfg.PIOLatency = cfg.NICPIOLatency
		ncfg.MSICapable = cfg.EnableMSI
		d := devices.NewNIC(devEng, n.Name, ncfg)
		mem.Connect(link.Down().MasterPort(), d.PIOPort())
		mem.Connect(d.DMAPort(), link.Down().SlavePort())
		bdf := plan.EndpointBDF[n]
		s.PCIHost.Register(bdf, d.ConfigSpace())
		link.Down().SetAER(d.AER())
		addAER(n.Name, d.AER())
		d.UsePacketPool(s.poolFor(n))
		d.OnInterrupt = func() {
			if h := s.NICDriver.HandleFor(bdf); h != nil {
				s.raiseIRQ(devEng, h.IRQ)
			}
		}
		s.NICs = append(s.NICs, &NICInst{Name: n.Name, BDF: bdf, Dev: d})

	case KindTestDev:
		d := devices.NewTestDev(devEng, n.Name, cfg.TestDev)
		mem.Connect(link.Down().MasterPort(), d.PIOPort())
		bdf := plan.EndpointBDF[n]
		s.PCIHost.Register(bdf, d.ConfigSpace())
		link.Down().SetAER(d.AER())
		addAER(n.Name, d.AER())
		s.TestDevs = append(s.TestDevs, &TestDevInst{Name: n.Name, BDF: bdf, Dev: d})

	default:
		return fmt.Errorf("topo: unknown node kind %q", n.Kind)
	}
	return nil
}

// subtreeBDFs lists every configuration-space address the sub-tree
// rooted at n occupies — the switch virtual bridges and the endpoint
// functions — in DFS order, from the pre-computed bus plan.
func subtreeBDFs(n *Node, plan *Plan) []pci.BDF {
	var out []pci.BDF
	var rec func(n *Node)
	rec = func(n *Node) {
		if n == nil {
			return
		}
		if n.Kind == KindSwitch {
			b := plan.SwitchBus[n]
			out = append(out, pci.NewBDF(b.Upstream, 0, 0))
			for j, c := range n.Ports {
				out = append(out, pci.NewBDF(b.Internal, uint8(j), 0))
				rec(c)
			}
			return
		}
		out = append(out, plan.EndpointBDF[n])
	}
	rec(n)
	return out
}

// powerOnReset puts a re-inserted function's software-visible state
// back at power-on defaults: decoding disabled, BARs and interrupt
// line cleared, bridge bus numbers zeroed and windows closed. Writes
// go through ConfigWrite so write masks and model hooks apply, exactly
// as if the hardware had been reset. The kernel's recovery driver is
// what makes the device usable again — it replays the boot-time
// configuration after releasing containment.
func powerOnReset(acc pci.ConfigAccessor) {
	acc.ConfigWrite(pci.RegCommand, 2, 0)
	hdr := uint8(acc.ConfigRead(pci.RegHeaderType, 1))
	if hdr&pci.HeaderTypeTypeMask == pci.HeaderType1 {
		acc.ConfigWrite(pci.RegPrimaryBus, 1, 0)
		acc.ConfigWrite(pci.RegSecondaryBus, 1, 0)
		acc.ConfigWrite(pci.RegSubordinateBus, 1, 0)
		// Closed windows: base above limit, so nothing decodes.
		acc.ConfigWrite(pci.RegMemBase, 2, 0xfff0)
		acc.ConfigWrite(pci.RegMemLimit, 2, 0)
		acc.ConfigWrite(pci.RegIOBase, 1, 0xf0)
		acc.ConfigWrite(pci.RegIOLimit, 1, 0)
		acc.ConfigWrite(pci.RegIOBaseUpper, 2, 0xffff)
		acc.ConfigWrite(pci.RegIOLimitUpper, 2, 0)
		return
	}
	for i := 0; i < 6; i++ {
		acc.ConfigWrite(pci.RegBAR0+4*i, 4, 0)
	}
	acc.ConfigWrite(pci.RegIntLine, 1, 0)
}

// LinkByName returns the named link instance, or nil.
func (s *System) LinkByName(name string) *LinkInst {
	return s.linkByName[name]
}

// DiskByName returns the named disk endpoint, or nil.
func (s *System) DiskByName(name string) *DiskInst {
	for _, d := range s.Disks {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// NICByName returns the named NIC endpoint, or nil.
func (s *System) NICByName(name string) *NICInst {
	for _, n := range s.NICs {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// EndpointNames lists every disk and NIC endpoint name in topology
// (bus) order — the names a workload trace may reference.
func (s *System) EndpointNames() []string {
	out := make([]string, 0, len(s.Disks)+len(s.NICs))
	for _, d := range s.Disks {
		out = append(out, d.Name)
	}
	for _, n := range s.NICs {
		out = append(out, n.Name)
	}
	return out
}

// Turnarounds sums switch-level peer-to-peer turnarounds across the
// fabric.
func (s *System) Turnarounds() uint64 {
	var total uint64
	for _, sw := range s.Switches {
		total += sw.Sw.P2PTurnarounds()
	}
	return total
}

// Reflections counts requests the root complex hairpinned back down the
// port they arrived on — the peer-to-peer reflection path.
func (s *System) Reflections() uint64 { return s.RC.Reflections() }
