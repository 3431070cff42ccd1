// Package xbar implements the address-range-routed crossbar that gem5
// uses for its on-chip MemBus and off-chip IOBus (§III of the paper).
//
// A crossbar has any number of ingress (slave) ports, where master
// devices inject requests, and egress (master) ports, each claiming a
// set of address ranges. Requests route by address; responses retrace
// the request path via the packet route stack. Each egress direction
// has a forwarding latency, a per-byte occupancy that models the bus
// width, and a bounded queue whose refusals propagate backpressure to
// the ingress side through the standard retry protocol.
package xbar

import (
	"fmt"

	"pciesim/internal/mem"
	"pciesim/internal/sim"
)

// Config parameterizes a crossbar.
type Config struct {
	// FrontendLatency is added to every request forwarded through the
	// crossbar — gem5's "latency associated with making the forwarding
	// decision".
	FrontendLatency sim.Tick
	// ResponseLatency is added to every response.
	ResponseLatency sim.Tick
	// PerByte is the occupancy added per payload byte, modeling the
	// data-path width ("moving data from one port to another").
	PerByte sim.Tick
	// QueueDepth bounds each egress queue; 0 means unbounded.
	QueueDepth int
}

// XBar is the crossbar. Construct with New, then wire devices with
// MasterPort (for slaves hanging off the bus) and SlavePort (for
// masters injecting into the bus) before the simulation starts.
type XBar struct {
	eng  *sim.Engine
	name string
	cfg  Config

	ingress []*ingressPort
	egress  []*egressPort
}

// ingressPort is where an external master connects. It owns the egress
// queue for responses heading back to that master.
type ingressPort struct {
	x     *XBar
	index int
	port  *mem.SlavePort
	respQ *mem.SendQueue
	// respWaiters are this crossbar's egress ports whose response
	// delivery was refused because respQ was full.
	respWaiters []*egressPort
	nextFree    sim.Tick
	// reqretryName/reqretryFn tell the external master to retry a
	// refused request; built once, scheduled per refusal.
	reqretryName string
	reqretryFn   func()
}

// egressPort is where an external slave connects. It owns the egress
// queue for requests heading to that slave.
type egressPort struct {
	x      *XBar
	index  int
	port   *mem.MasterPort
	ranges mem.RangeList
	reqQ   *mem.SendQueue
	// reqWaiters are this crossbar's ingress ports whose request was
	// refused because reqQ was full.
	reqWaiters []*ingressPort
	nextFree   sim.Tick
	// respretryName/respretryFn tell the external slave to retry a
	// refused response; built once, scheduled per refusal.
	respretryName string
	respretryFn   func()
}

// New creates an empty crossbar.
func New(eng *sim.Engine, name string, cfg Config) *XBar {
	return &XBar{eng: eng, name: name, cfg: cfg}
}

// Name returns the crossbar's name.
func (x *XBar) Name() string { return x.name }

// SlavePort adds an ingress port (for an external master to connect to)
// and returns it.
func (x *XBar) SlavePort(name string) *mem.SlavePort {
	in := &ingressPort{x: x, index: len(x.ingress)}
	in.port = mem.NewSlavePort(fmt.Sprintf("%s.slave[%s]", x.name, name), (*xbarSlaveOwner)(in))
	in.reqretryName = in.port.Name() + ".reqretry"
	in.reqretryFn = in.port.SendReqRetry
	in.respQ = mem.NewSendQueue(x.eng, in.port.Name()+".respq", x.cfg.QueueDepth, func(p *mem.Packet) bool {
		return in.port.SendTimingResp(p)
	})
	in.respQ.Segment("xbar-q")
	in.respQ.OnFree(func() { in.freeWaiter() })
	x.ingress = append(x.ingress, in)
	return in.port
}

// MasterPort adds an egress port claiming the given address ranges (for
// an external slave to connect to) and returns it.
func (x *XBar) MasterPort(name string, ranges mem.RangeList) *mem.MasterPort {
	for _, r := range ranges {
		for _, e := range x.egress {
			if e.ranges.Overlaps(r) {
				panic(fmt.Sprintf("xbar %s: range %v of port %q overlaps port %q",
					x.name, r, name, e.port.Name()))
			}
		}
	}
	out := &egressPort{x: x, index: len(x.egress), ranges: ranges}
	out.port = mem.NewMasterPort(fmt.Sprintf("%s.master[%s]", x.name, name), (*xbarMasterOwner)(out))
	out.respretryName = out.port.Name() + ".respretry"
	out.respretryFn = out.port.SendRespRetry
	out.reqQ = mem.NewSendQueue(x.eng, out.port.Name()+".reqq", x.cfg.QueueDepth, func(p *mem.Packet) bool {
		return out.port.SendTimingReq(p)
	})
	out.reqQ.Segment("xbar-q")
	out.reqQ.OnFree(func() { out.freeWaiter() })
	x.egress = append(x.egress, out)
	return out.port
}

// Ranges returns the union of all egress ranges — what the crossbar as
// a whole responds to (used when a bridge claims the off-chip window).
func (x *XBar) Ranges() mem.RangeList {
	var all mem.RangeList
	for _, e := range x.egress {
		all = append(all, e.ranges...)
	}
	return all.Normalize()
}

// routeFor finds the egress port claiming addr, or nil.
func (x *XBar) routeFor(addr uint64) *egressPort {
	for _, e := range x.egress {
		if e.ranges.Contains(addr) {
			return e
		}
	}
	return nil
}

// xbarSlaveOwner adapts ingressPort to mem.SlaveOwner.
type xbarSlaveOwner ingressPort

func (o *xbarSlaveOwner) in() *ingressPort { return (*ingressPort)(o) }

// RecvTimingReq routes a request from an external master to the egress
// queue claiming its address.
func (o *xbarSlaveOwner) RecvTimingReq(_ *mem.SlavePort, pkt *mem.Packet) bool {
	in := o.in()
	x := in.x
	dst := x.routeFor(pkt.Addr)
	if dst == nil {
		panic(fmt.Sprintf("xbar %s: no route for %v", x.name, pkt))
	}
	if dst.reqQ.Full() {
		dst.addWaiter(in)
		return false
	}
	pkt.PushRoute(x, in.index)
	ready := x.eng.Now() + x.cfg.FrontendLatency
	if dst.nextFree > ready {
		ready = dst.nextFree
	}
	dst.nextFree = ready + x.cfg.PerByte*sim.Tick(pkt.Size)
	dst.reqQ.Push(pkt, ready)
	return true
}

// RecvRespRetry resumes a response queue blocked on this ingress port's
// external master.
func (o *xbarSlaveOwner) RecvRespRetry(*mem.SlavePort) { o.in().respQ.RetryReceived() }

// AddrRanges advertises the crossbar's reachable ranges to whoever asks
// (e.g. a bridge wiring itself up).
func (o *xbarSlaveOwner) AddrRanges(*mem.SlavePort) mem.RangeList { return o.in().x.Ranges() }

// xbarMasterOwner adapts egressPort to mem.MasterOwner.
type xbarMasterOwner egressPort

func (o *xbarMasterOwner) out() *egressPort { return (*egressPort)(o) }

// RecvTimingResp routes a response from an external slave back to the
// ingress port recorded on the packet's route stack.
func (o *xbarMasterOwner) RecvTimingResp(_ *mem.MasterPort, pkt *mem.Packet) bool {
	out := o.out()
	x := out.x
	if pkt.RouteDepth() == 0 {
		panic(fmt.Sprintf("xbar %s: response %v with no route", x.name, pkt))
	}
	idx := pkt.PopRoute(x)
	in := x.ingress[idx]
	if in.respQ.Full() {
		pkt.PushRoute(x, idx) // restore for the retry
		in.addRespWaiter(out)
		return false
	}
	ready := x.eng.Now() + x.cfg.ResponseLatency
	if in.nextFree > ready {
		ready = in.nextFree
	}
	in.nextFree = ready + x.cfg.PerByte*sim.Tick(pkt.Size)
	in.respQ.Push(pkt, ready)
	return true
}

// RecvReqRetry resumes this egress port's request queue after a
// downstream refusal.
func (o *xbarMasterOwner) RecvReqRetry(*mem.MasterPort) { o.out().reqQ.RetryReceived() }

func (e *egressPort) addWaiter(p *ingressPort) {
	for _, w := range e.reqWaiters {
		if w == p {
			return
		}
	}
	e.reqWaiters = append(e.reqWaiters, p)
}

// freeWaiter hands the freed request-queue slot to the oldest waiting
// ingress port by telling its external master to retry.
func (e *egressPort) freeWaiter() {
	if len(e.reqWaiters) == 0 {
		return
	}
	w := e.reqWaiters[0]
	copy(e.reqWaiters, e.reqWaiters[1:])
	e.reqWaiters = e.reqWaiters[:len(e.reqWaiters)-1]
	// Defer to an event so the retry does not run inside the queue's
	// send path (the master may immediately re-send).
	e.x.eng.ScheduleAt(w.reqretryName, e.x.eng.Now(), sim.PriorityRetry, w.reqretryFn)
}

func (in *ingressPort) addRespWaiter(p *egressPort) {
	for _, w := range in.respWaiters {
		if w == p {
			return
		}
	}
	in.respWaiters = append(in.respWaiters, p)
}

func (in *ingressPort) freeWaiter() {
	if len(in.respWaiters) == 0 {
		return
	}
	w := in.respWaiters[0]
	copy(in.respWaiters, in.respWaiters[1:])
	in.respWaiters = in.respWaiters[:len(in.respWaiters)-1]
	in.x.eng.ScheduleAt(w.respretryName, in.x.eng.Now(), sim.PriorityRetry, w.respretryFn)
}
