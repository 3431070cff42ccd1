package main

import (
	"fmt"
	"runtime"
	"time"

	"pciesim/internal/cache"
	"pciesim/internal/mem"
	"pciesim/internal/memctrl"
	"pciesim/internal/pci"
	"pciesim/internal/pcie"
	"pciesim/internal/sim"
	"pciesim/internal/testdev"
	"pciesim/internal/topo"
	"pciesim/internal/xbar"
)

// The isolated rigs put one component on its own engine between
// testdev endpoints, built from public constructors with the platform's
// default parameters. Each op is one 64 B transaction (or one event for
// the sim rig), and a closed loop keeps a small window outstanding so
// the component's queues and retry paths are exercised.

const (
	microRuns   = 5
	microWindow = 4
	// dramBase is where request rigs aim their traffic: the platform's
	// DRAM window, which the router rig forwards upstream.
	dramBase = topo.DRAMBase
	// span cycles addresses over 1 MiB, far beyond the IOCache, so the
	// cache rig misses on every op.
	span = 1 << 20
)

type microRig struct {
	name  string
	ops   int
	build func(n int) (*sim.Engine, func() error)
}

var micros = []microRig{
	{"sim", 200000, simRig},
	{"testdev", 50000, func(n int) (*sim.Engine, func() error) {
		eng := sim.NewEngine()
		req, resp := endpoints(eng)
		mem.Connect(req.Port(), resp.Port())
		return eng, closedLoop(eng, req, resp, n, writes(req))
	}},
	{"link", 20000, func(n int) (*sim.Engine, func() error) {
		eng := sim.NewEngine()
		req, resp := endpoints(eng)
		cfg := pcie.DefaultLinkConfig()
		cfg.PropDelay = 0 // as on every benchmark platform
		l := pcie.NewLink(eng, "link", cfg)
		mem.Connect(req.Port(), l.Up().SlavePort())
		mem.Connect(l.Down().MasterPort(), resp.Port())
		return eng, closedLoop(eng, req, resp, n, writes(req))
	}},
	{"router", 20000, routerRig},
	{"xbar", 50000, func(n int) (*sim.Engine, func() error) {
		eng := sim.NewEngine()
		req, resp := endpoints(eng)
		d := topo.DefaultConfig()
		x := xbar.New(eng, "xbar", xbar.Config{
			FrontendLatency: d.MemBusFrontend,
			ResponseLatency: d.MemBusResponse,
			PerByte:         d.MemBusPerByte,
		})
		mem.Connect(req.Port(), x.SlavePort("req"))
		mem.Connect(x.MasterPort("mem", mem.RangeList{mem.Range(dramBase, span)}), resp.Port())
		return eng, closedLoop(eng, req, resp, n, writes(req))
	}},
	{"cache", 20000, func(n int) (*sim.Engine, func() error) {
		eng := sim.NewEngine()
		req, resp := endpoints(eng)
		c := cache.New(eng, "iocache", topo.DefaultConfig().IOCache)
		mem.Connect(req.Port(), c.CPUSidePort())
		mem.Connect(c.MemSidePort(), resp.Port())
		// Alternate full-line writes (write-allocate, the dd-read path)
		// and reads (miss and fill, the dd-write path).
		issue := func(i int) {
			addr := dramBase + uint64(i*64)%span
			if i%2 == 0 {
				req.Write(addr, 64)
			} else {
				req.Read(addr, 64)
			}
		}
		return eng, closedLoop(eng, req, resp, n, issue)
	}},
	{"memctrl", 50000, func(n int) (*sim.Engine, func() error) {
		eng := sim.NewEngine()
		req := testdev.NewRequester(eng, "req")
		m := memctrl.New(eng, "dram", mem.Range(dramBase, span), topo.DefaultConfig().DRAM)
		mem.Connect(req.Port(), m.Port())
		return eng, closedLoop(eng, req, nil, n, writes(req))
	}},
}

func endpoints(eng *sim.Engine) (*testdev.Requester, *testdev.Responder) {
	return testdev.NewRequester(eng, "req"), testdev.NewResponder(eng, "resp", nil, 10*sim.Nanosecond, 0)
}

// writes issues 64 B writes to consecutive lines.
func writes(req *testdev.Requester) func(int) {
	return func(i int) { req.Write(dramBase+uint64(i*64)%span, 64) }
}

// closedLoop returns a run function that keeps microWindow requests
// outstanding until n have completed. It trims the endpoints' logs as
// it goes, so memory stays flat however large n is.
func closedLoop(eng *sim.Engine, req *testdev.Requester, resp *testdev.Responder, n int, issue func(int)) func() error {
	issued, done := 0, 0
	req.OnComplete = func(testdev.Completion) {
		done++
		req.Completions = req.Completions[:0]
		if resp != nil {
			resp.Received = resp.Received[:0]
		}
		if issued < n {
			issue(issued)
			issued++
		}
	}
	return func() error {
		for ; issued < microWindow && issued < n; issued++ {
			issue(issued)
		}
		eng.Run()
		if done != n {
			return fmt.Errorf("%d of %d ops completed", done, n)
		}
		return nil
	}
}

// simRig churns a 1024-deep event heap: every event reschedules itself
// a pseudo-random 1..1000 ticks ahead until n have fired.
func simRig(n int) (*sim.Engine, func() error) {
	eng := sim.NewEngine()
	rnd := sim.NewRand(1)
	const depth = 1024
	fired := 0
	for i := 0; i < depth; i++ {
		var ev *sim.Event
		ev = eng.NewEvent(fmt.Sprintf("churn%d", i), func() {
			fired++
			if fired+depth <= n {
				eng.ScheduleEventAfter(ev, sim.Tick(1+rnd.Uint64()%1000), sim.PriorityDefault)
			}
		})
		eng.ScheduleEventAfter(ev, sim.Tick(1+rnd.Uint64()%1000), sim.PriorityDefault)
	}
	return eng, func() error {
		eng.Run()
		if fired != n {
			return fmt.Errorf("%d of %d events fired", fired, n)
		}
		return nil
	}
}

// routerRig sends DMA writes from a switch downstream port up through
// the upstream port, the forwarding path every dd TLP takes. The
// virtual bridges are programmed the way enumeration would.
func routerRig(n int) (*sim.Engine, func() error) {
	eng := sim.NewEngine()
	host := pci.NewHost(eng, "pcihost", pci.HostConfig{ECAMWindow: mem.Range(topo.ConfigBase, topo.ConfigSize)})
	d := topo.DefaultConfig()
	cfg := pcie.SwitchConfig{NumDownstreamPorts: 2, UpstreamBus: 1, InternalBus: 2}
	cfg.Latency = d.SwitchLatency
	cfg.BufferSize = d.PortBufferSize
	sw := pcie.NewSwitch(eng, "sw", host, cfg)
	programBridge(sw.UpstreamPort().VP2P(), 0, 1, 3, topo.MMIOBase, topo.MMIOBase+0x3fffff)
	programBridge(sw.DownstreamPort(0).VP2P(), 2, 3, 3, topo.MMIOBase, topo.MMIOBase+0xfffff)
	req, resp := endpoints(eng)
	mem.Connect(req.Port(), sw.DownstreamPort(0).SlavePort())
	mem.Connect(sw.UpstreamPort().MasterPort(), resp.Port())
	return eng, closedLoop(eng, req, resp, n, writes(req))
}

// programBridge sets a virtual bridge's bus numbers and memory window
// and enables it, standing in for enumeration software.
func programBridge(c *pci.ConfigSpace, pri, sec, sub uint8, memBase, memLimit uint64) {
	c.ConfigWrite(pci.RegPrimaryBus, 1, uint32(pri))
	c.ConfigWrite(pci.RegSecondaryBus, 1, uint32(sec))
	c.ConfigWrite(pci.RegSubordinateBus, 1, uint32(sub))
	c.ConfigWrite(pci.RegMemBase, 2, uint32(memBase>>16)&0xfff0)
	c.ConfigWrite(pci.RegMemLimit, 2, uint32(memLimit>>16)&0xfff0)
	c.ConfigWrite(pci.RegCommand, 2, pci.CmdMemEnable|pci.CmdBusMaster)
}

// microSample is one timed run of a rig.
type microSample struct {
	ns, allocs, events float64
}

// runMicro times one rig microRuns times on fresh instances.
func runMicro(m microRig) ([]microSample, error) {
	var out []microSample
	for i := 0; i < microRuns; i++ {
		eng, run := m.build(m.ops)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err := run()
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		n := float64(m.ops)
		out = append(out, microSample{
			ns:     float64(dt.Nanoseconds()) / n,
			allocs: float64(m1.Mallocs-m0.Mallocs) / n,
			events: float64(eng.Fired()) / n,
		})
	}
	return out, nil
}

// runMicros runs every rig and reports medians, plus each fabric rig's
// own cost over the direct testdev baseline.
func runMicros() ([]metric, error) {
	runtime.GOMAXPROCS(1) // every rig is one engine on one thread
	var out []metric
	nsMed := map[string]float64{}
	for _, m := range micros {
		samples, err := runMicro(m)
		if err != nil {
			return nil, err
		}
		var ns, allocs, events []float64
		for _, s := range samples {
			ns = append(ns, s.ns)
			allocs = append(allocs, s.allocs)
			events = append(events, s.events)
		}
		p := "micro." + m.name
		nsM := summarize(p+".ns_per_op", "ns", ns)
		nsMed[m.name] = nsM.Value
		out = append(out, nsM,
			summarize(p+".allocs_per_op", "count", allocs),
			summarize(p+".events_per_op", "count", events))
	}
	for _, l := range selfLayers {
		out = append(out, single("micro."+l+".self_ns_per_op", "ns", nsMed[l]-nsMed["testdev"]))
	}
	return out, nil
}
