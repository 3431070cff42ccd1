package pcie

import (
	"fmt"

	"pciesim/internal/mem"
	"pciesim/internal/pci"
	"pciesim/internal/sim"
	"pciesim/internal/stats"
	"pciesim/internal/trace"
)

// RouterConfig holds the knobs shared by the root complex and switch:
// "Each port associated with the root complex has configurable buffers
// and models the congestion at the port. Also, there is a configurable
// latency for request/response processing" (§V-A).
type RouterConfig struct {
	// Latency is the per-packet processing (switching) latency.
	Latency sim.Tick
	// BufferSize bounds each port's egress buffer, in packets per
	// master or slave port (the Fig 9(d) sweep variable; default 16).
	BufferSize int
	// CompletionTimeout, when nonzero, arms a completion timer on
	// every non-posted request the root complex forwards downstream.
	// If the completer never answers (dead link, wedged device), the
	// root complex synthesizes an all-ones error completion so the
	// requester degrades instead of deadlocking. Honored by the root
	// complex; switches forward and let the RC own the timeout.
	CompletionTimeout sim.Tick
	// Credits is the platform-wide flow-control configuration. On a
	// link with finite credits, each of this router's ports advertises
	// these credits capped at what its real BufferSize-deep queues can
	// absorb (see Port.ConnectLink). The zero value advertises the
	// queue depths alone.
	Credits CreditConfig
	// EnableDPC adds a Downstream Port Containment extended capability
	// to every slot-implemented port (root ports, switch downstream
	// ports). When software arms the capability, a surprise-down or
	// surprise removal below the port triggers containment: in-flight
	// non-posted requests into the dead sub-tree get synthesized error
	// completions immediately instead of waiting out the completion
	// timeout, posted writes are discarded and counted, and new
	// requests are answered at the port until software releases the
	// trigger. Off by default so existing platforms are bit-identical.
	EnableDPC bool
}

func (c *RouterConfig) applyDefaults() {
	if c.BufferSize == 0 {
		c.BufferSize = 16
	}
}

// Port is one bidirectional port of a root complex or switch: a master
// half that sends requests downstream/upstream and a slave half that
// receives them, each with its own bounded egress buffer.
type Port struct {
	r     *router
	index int // 0 is the upstream port
	name  string

	// vp2p is the port's virtual PCI-to-PCI bridge configuration space.
	// Every switch port has one; root complex root ports have one; the
	// root complex upstream port does not (§V-B: "This is in contrast
	// to the root complex, where only the downstream ports (root ports)
	// are represented by VP2P").
	vp2p *pci.ConfigSpace

	slave  *mem.SlavePort
	master *mem.MasterPort

	reqQ  *mem.SendQueue // egress requests, sent from the master half
	respQ *mem.SendQueue // egress responses, sent from the slave half

	reqWaiters  []*Port // ingress ports refused because reqQ was full
	respWaiters []*Port
	// abortRetryPending marks a request refused because the local
	// response queue (used for master aborts) was full.
	abortRetryPending bool

	// Retry event names and callbacks, built once: the wake paths
	// schedule one per refusal.
	reqretryName, respretryName, abortretryName string
	reqretryFn, respretryFn                     func()

	// cached VP2P window decode, invalidated on config writes
	win      portWindows
	winValid bool

	// aer is the port VP2P's Advanced Error Reporting capability (nil
	// for the root complex upstream port, which has no VP2P).
	aer *pci.AER

	// dpc is the Downstream Port Containment capability of a
	// downstream-facing slot port (nil unless RouterConfig.EnableDPC).
	// dpcQ holds contained requests whose error completions wait for
	// room in their ingress response queue; dpcDrain retries them.
	dpc      *pci.DPC
	dpcQ     []*reqEntry
	dpcDrain *sim.Event

	// pcieCapOff caches the VP2P's PCI-Express capability offset for
	// slot/link status updates (0 when absent).
	pcieCapOff int

	// Stats. The dpc counters are error completions synthesized,
	// posted writes discarded while contained, and genuine completions
	// dropped after containment answered them.
	reqIn, respIn, aborts        uint64
	dpcSynth, dpcPosted, dpcLate uint64
}

type portWindows struct {
	io, mem, pref  mem.AddrRange
	secBus, subBus uint8
}

// VP2P returns the port's bridge configuration space (nil for the root
// complex upstream port).
func (p *Port) VP2P() *pci.ConfigSpace { return p.vp2p }

// AER returns the port's Advanced Error Reporting capability, if any.
func (p *Port) AER() *pci.AER { return p.aer }

// MasterPort returns the half that issues requests out of this port.
func (p *Port) MasterPort() *mem.MasterPort { return p.master }

// SlavePort returns the half that accepts requests into this port.
func (p *Port) SlavePort() *mem.SlavePort { return p.slave }

// ConnectLink wires a PCI-Express link's upstream end to this
// (downstream-facing) port. On an FC link the port advertises its
// receiver credits from its real queue depths (capped further by the
// router's configured Credits); on a legacy link the advertisement is
// a no-op.
func (p *Port) ConnectLink(l *Link) {
	mem.Connect(p.master, l.Up().SlavePort())
	mem.Connect(l.Up().MasterPort(), p.slave)
	l.Up().AdvertiseCredits(p.advertCredits())
	p.watchLink(l, true)
}

// advertCredits derives what this port can honestly advertise: the
// configured platform credits, capped at its BufferSize-deep ingress
// queues.
func (p *Port) advertCredits() CreditConfig {
	return MinCredits(p.r.cfg.Credits, CreditsForQueueDepth(p.r.cfg.BufferSize))
}

// watchLink mirrors the link's lifecycle into the port's configuration
// space (Link Status speed/width, slot presence and state-change bits)
// and, on downstream ports with DPC armed, triggers containment on a
// surprise-down. slot says whether the VP2P's PCI-Express capability
// implements the slot registers (switch upstream ports do not).
func (p *Port) watchLink(l *Link, slot bool) {
	if p.vp2p == nil {
		return
	}
	if p.pcieCapOff == 0 {
		p.pcieCapOff = pci.FindCapability(p.vp2p, pci.CapIDPCIExpress)
	}
	capOff := p.pcieCapOff
	if capOff == 0 {
		return
	}
	if slot {
		// The device below the slot is seated at wiring time. Raw set:
		// the boot-time seating predates software, so no PDC latch.
		st := p.vp2p.Word(capOff + pci.PCIeSlotStatusOffset)
		p.vp2p.SetWord(capOff+pci.PCIeSlotStatusOffset, st|pci.SlotStatusPDS)
	}
	l.SetNotify(func(n LinkNotice) {
		switch n {
		case NoticeRetrained:
			pci.SetLinkStatus(p.vp2p, capOff, uint8(l.CurrentGen()), uint8(l.CurrentWidth()))
			if slot {
				pci.SetSlotLinkStateChanged(p.vp2p, capOff)
			}
		case NoticeDead:
			if slot {
				pci.SetSlotLinkStateChanged(p.vp2p, capOff)
			}
			p.triggerDPC(pci.DPCReasonFatal)
		case NoticeRemoved:
			if slot {
				pci.SetSlotPresence(p.vp2p, capOff, false)
				pci.SetSlotLinkStateChanged(p.vp2p, capOff)
			}
			p.triggerDPC(pci.DPCReasonFatal)
		case NoticeReinserted:
			if slot {
				pci.SetSlotPresence(p.vp2p, capOff, true)
				pci.SetSlotLinkStateChanged(p.vp2p, capOff)
			}
		}
	})
}

// DPC returns the port's Downstream Port Containment capability handle
// (nil unless RouterConfig.EnableDPC). The platform layer hooks its
// OnTrigger to raise the containment interrupt toward software.
func (p *Port) DPC() *pci.DPC { return p.dpc }

// armDPC attaches the DPC capability to a downstream-facing slot port.
// Stats appear only on armed platforms so unarmed dumps stay
// byte-identical.
func (p *Port) armDPC() {
	p.dpc = pci.AddDPC(p.vp2p)
	p.dpcDrain = p.r.eng.NewEvent(p.name+".dpcDrain", p.drainDPC)
	reg := p.r.eng.Stats()
	reg.CounterFunc(p.name+".dpc.triggers", func() uint64 { return p.dpc.Triggers() })
	reg.CounterFunc(p.name+".dpc.releases", func() uint64 { return p.dpc.Releases() })
	reg.CounterFunc(p.name+".dpc.np_synth", func() uint64 { return p.dpcSynth })
	reg.CounterFunc(p.name+".dpc.posted_discarded", func() uint64 { return p.dpcPosted })
	reg.CounterFunc(p.name+".dpc.late", func() uint64 { return p.dpcLate })
}

// triggerDPC engages containment after a fatal error below the port:
// the capability latches trigger status (a no-op unless software armed
// it), then every in-flight non-posted request into the sub-tree is
// answered with a synthesized error completion so no requester above
// the break ever hangs.
func (p *Port) triggerDPC(reason uint16) {
	if p.dpc == nil || p.dpc.Contained() {
		return
	}
	_, sec, _ := pci.BridgeBusNumbers(p.vp2p)
	if !p.dpc.Trigger(reason, pci.NewBDF(sec, 0, 0)) {
		return
	}
	queued := len(p.dpcQ)
	p.r.reqs.contain(p)
	if tr := p.r.eng.Tracer(); tr.On(trace.CatFault) {
		tr.Emit(trace.CatFault, uint64(p.r.eng.Now()), p.name, "dpc-trigger", 0,
			fmt.Sprintf("reason=%d containing %d in-flight non-posted requests",
				reason, len(p.dpcQ)-queued))
	}
	p.drainDPC()
}

// drainDPC pushes the contained requests' error completions, retrying
// while an ingress response queue is full (they always drain: they end
// at requesters).
func (p *Port) drainDPC() {
	eng := p.r.eng
	for len(p.dpcQ) > 0 {
		e := p.dpcQ[0]
		if e.in.respQ.Full() {
			eng.ScheduleEventAfter(p.dpcDrain, p.r.cfg.Latency+1, sim.PriorityTimer)
			return
		}
		p.dpcQ = p.dpcQ[1:]
		p.dpcSynth++
		if tr := eng.Tracer(); tr.On(trace.CatFault) {
			tr.Emit(trace.CatFault, uint64(eng.Now()), p.name,
				"dpc-synth", e.id, "synthesizing error completion for contained request")
		}
		e.in.respQ.Push(e.errResp, eng.Now()+p.r.cfg.Latency)
	}
}

// containedAbort answers a request routed at a contained port: posted
// writes are discarded and counted, non-posted requests complete with
// an error in place through the ingress port, like a master abort.
func (p *Port) containedAbort(in *Port, pkt *mem.Packet) bool {
	tr := p.r.eng.Tracer()
	if pkt.Posted {
		p.dpcPosted++
		if tr.On(trace.CatFault) {
			tr.Emit(trace.CatFault, uint64(p.r.eng.Now()), p.name,
				"dpc-posted-discard", pkt.ID, "")
		}
		pkt.Release()
		return true
	}
	if !in.answerInPlace(pkt, true) {
		return false
	}
	p.dpcSynth++
	if tr.On(trace.CatFault) {
		tr.Emit(trace.CatFault, uint64(p.r.eng.Now()), p.name,
			"dpc-abort", pkt.ID, "port contained; completing with error")
	}
	return true
}

// answerInPlace completes a request that entered at p without
// forwarding it: the request packet becomes its own completion, with
// all-ones read data and, for a containment abort, the error bit, sent
// back through p's response queue. It returns false, arming p's abort
// retry, while that queue is full.
func (p *Port) answerInPlace(pkt *mem.Packet, errored bool) bool {
	if p.respQ.Full() {
		p.abortRetryPending = true
		return false
	}
	if pkt.Cmd == mem.ReadReq {
		if pkt.Data == nil {
			pkt.Data = make([]byte, pkt.Size)
		}
		for i := range pkt.Data {
			pkt.Data[i] = 0xff
		}
	}
	if errored {
		pkt.Error = true
	}
	p.respQ.Push(pkt.MakeResponse(), p.r.eng.Now()+p.r.cfg.Latency)
	return true
}

// QueueStats exposes the egress queue counters for the request and
// response queues.
func (p *Port) QueueStats() (req, resp mem.QueueStats) {
	return p.reqQ.Stats(), p.respQ.Stats()
}

func (p *Port) windows() portWindows {
	if !p.winValid {
		iob, iol := pci.BridgeIOWindow(p.vp2p)
		mb, ml := pci.BridgeMemWindow(p.vp2p)
		_, sec, sub := pci.BridgeBusNumbers(p.vp2p)
		w := portWindows{secBus: sec, subBus: sub}
		if pci.WindowEnabled(iob, iol) {
			w.io = mem.Span(iob, iol+1)
		}
		if pci.WindowEnabled(mb, ml) {
			w.mem = mem.Span(mb, ml+1)
		}
		p.win = w
		p.winValid = true
	}
	return p.win
}

// claims reports whether the port's programmed windows cover addr.
func (p *Port) claims(addr uint64) bool {
	if p.vp2p == nil {
		return false
	}
	w := p.windows()
	return w.io.Contains(addr) || w.mem.Contains(addr) || w.pref.Contains(addr)
}

// claimsBus reports whether bus lies in [secondary, subordinate].
func (p *Port) claimsBus(bus int) bool {
	if p.vp2p == nil || bus < 0 {
		return false
	}
	w := p.windows()
	return bus >= int(w.secBus) && bus <= int(w.subBus) && w.subBus != 0
}

// router is the machinery shared by RootComplex and Switch. Port 0 is
// the upstream port; the rest face downstream.
type router struct {
	eng   *sim.Engine
	name  string
	cfg   RouterConfig
	ports []*Port

	// upstreamStampBus is the bus number stamped onto unstamped
	// requests entering the upstream port — 0 at the root complex ("The
	// upstream root complex slave port sets the bus number to be 0").
	upstreamStampBus int

	// checkUpstreamWindow makes the upstream ingress verify the
	// upstream VP2P windows before routing (switch semantics, §V-B).
	checkUpstreamWindow bool

	// noP2P disables downstream-to-downstream turnaround (switches
	// only): peer traffic entering a downstream port is forced out the
	// upstream port instead, so it reflects off the root complex. The
	// response path mirrors the request path — a response whose bus
	// number matches a peer downstream port is also forced upstream.
	noP2P bool

	// allowHairpin lets a request entering a downstream port whose own
	// windows claim the address turn around on that same port (root
	// complex only): this is the RC reflection path for peer-to-peer
	// traffic that was forced up by a noP2P switch. Without it the
	// request would escape into the memory system and master-abort.
	allowHairpin bool

	// p2pTurns counts requests routed downstream-to-downstream (switch
	// turnaround) or hairpinned back out their ingress port (RC
	// reflection).
	p2pTurns uint64

	// reqs tracks outstanding non-posted requests when the completion
	// timeout or DPC is armed (nil otherwise).
	reqs *reqTable
}

// reqTable follows the non-posted requests a router forwards into
// sub-trees that may die: every request the root complex's completion
// timer covers (in through the upstream port, out through a root port)
// and every request that leaves by a DPC-capable port. Each entry
// carries an error completion built at track time. It must be built
// then, not when the answer is due: MakeResponse converts requests in
// place, so by then a completer may already have turned the live
// request into a response that died on the dead link. Whichever answers
// first — the timer or a containment trigger on the egress port —
// retires the entry and leaves a tombstone, so a genuine completion
// arriving afterwards is dropped before it reaches the requester twice.
type reqTable struct {
	r     *router
	order []*reqEntry // tracking order; leading done entries pruned lazily
	byID  map[uint64]*reqEntry
	// answered maps the ID of every answered request to the DPC port
	// that answered it, or to nil for the completion timer.
	answered map[uint64]*Port

	// The completion timer (root complex with CompletionTimeout only).
	// Deadlines are monotone in tracking order because the timeout is
	// fixed, so one event serves them all.
	timeout sim.Tick
	timer   *sim.Event
	fired   uint64 // error completions the timer synthesized
	late    uint64 // genuine completions dropped after timing out
	// lat is the tracked-to-completion latency of timed requests that
	// completed in time; seg is its cpl-turnaround attribution, resolved
	// lazily when spans are armed (nil until then, so unarmed dumps are
	// unchanged).
	lat, seg *stats.Histogram
}

type reqEntry struct {
	id      uint64
	in, out *Port // ingress (the error completion's way back) and egress
	errResp *mem.Packet
	// deadline is nonzero when the completion timer covers the entry.
	deadline sim.Tick
	done     bool
}

// newReqTable creates a router's request table; a nonzero timeout arms
// the completion timer and registers its stats.
func newReqTable(r *router, timeout sim.Tick) *reqTable {
	t := &reqTable{
		r: r, timeout: timeout,
		byID:     make(map[uint64]*reqEntry),
		answered: make(map[uint64]*Port),
	}
	if timeout > 0 {
		t.timer = r.eng.NewEvent(r.name+".ctoTimer", t.expire)
		reg := r.eng.Stats()
		reg.CounterFunc(r.name+".cto.fired", func() uint64 { return t.fired })
		reg.CounterFunc(r.name+".cto.late", func() uint64 { return t.late })
		t.lat = reg.Histogram(r.name + ".completion_latency")
	}
	return t
}

// track records a non-posted request forwarded from in to out, if the
// timer or out's containment covers it.
func (t *reqTable) track(pkt *mem.Packet, in, out *Port) {
	timed := t.timer != nil && in.index == 0 && out.index != 0
	if !timed && out.dpc == nil {
		return
	}
	for len(t.order) > 0 && t.order[0].done {
		t.order = t.order[1:]
	}
	e := &reqEntry{id: pkt.ID, in: in, out: out, errResp: pkt.MakeErrorResponse()}
	t.order = append(t.order, e)
	t.byID[pkt.ID] = e
	if timed {
		e.deadline = t.r.eng.Now() + t.timeout
		if !t.timer.Scheduled() {
			t.r.eng.ScheduleEvent(t.timer, e.deadline, sim.PriorityTimer)
		}
	}
}

// answer retires an entry on behalf of by (nil for the timer).
func (t *reqTable) answer(e *reqEntry, by *Port) {
	e.done = true
	delete(t.byID, e.id)
	t.answered[e.id] = by
}

// observe matches a completion entering a downstream port. It returns
// false if the completion is late — the timer or containment already
// answered the requester — in which case the caller must swallow it.
func (t *reqTable) observe(id uint64) bool {
	eng := t.r.eng
	if by, dead := t.answered[id]; dead {
		delete(t.answered, id)
		tr := eng.Tracer()
		if by == nil {
			t.late++
			if tr.On(trace.CatFault) {
				tr.Emit(trace.CatFault, uint64(eng.Now()), t.r.name,
					"late-completion", id, "dropped; timeout already answered")
			}
		} else {
			by.dpcLate++
			if tr.On(trace.CatFault) {
				tr.Emit(trace.CatFault, uint64(eng.Now()), by.name,
					"dpc-late-completion", id, "dropped; containment already answered")
			}
		}
		return false
	}
	e, ok := t.byID[id]
	if !ok {
		return true
	}
	e.done = true
	delete(t.byID, id)
	if e.deadline != 0 {
		trackedAt := e.deadline - t.timeout
		t.lat.Observe(uint64(eng.Now() - trackedAt))
		if eng.SpansOn() {
			if t.seg == nil {
				t.seg = eng.Seg("cpl-turnaround")
			}
			t.seg.Observe(uint64(eng.Now() - trackedAt))
			if tr := eng.Tracer(); tr.On(trace.CatSpan) {
				tr.Span(uint64(trackedAt), uint64(eng.Now()), t.r.name, "cpl-turnaround", id, "")
			}
		}
	}
	return true
}

// expire answers every overdue timed entry with its error completion
// through the upstream response queue, then re-arms for the next
// deadline.
func (t *reqTable) expire() {
	eng := t.r.eng
	now := eng.Now()
	up := t.r.ports[0]
	for _, e := range t.order {
		if e.done || e.deadline == 0 {
			continue
		}
		if e.deadline > now {
			if !t.timer.Scheduled() {
				eng.ScheduleEvent(t.timer, e.deadline, sim.PriorityTimer)
			}
			return
		}
		if up.respQ.Full() {
			// The upstream response path always drains (it ends at the
			// CPU); retry shortly rather than dropping the timeout.
			eng.ScheduleEventAfter(t.timer, t.r.cfg.Latency+1, sim.PriorityTimer)
			return
		}
		t.answer(e, nil)
		t.fired++
		// Latch the offending request's packet ID in the AER header
		// log so software can name the exact TLP that timed out.
		e.out.aer.ReportUncorrectableTLP(pci.AERUncCompletionTimeout, e.id)
		if tr := eng.Tracer(); tr.On(trace.CatFault) {
			tr.Emit(trace.CatFault, uint64(now), t.r.name,
				"completion-timeout", e.id,
				fmt.Sprintf("no completion for pkt#%d within %v; synthesizing error response", e.id, t.timeout))
		}
		up.respQ.Push(e.errResp, now+t.r.cfg.Latency)
	}
}

// contain answers every outstanding request that left by p: the
// entries move to p's containment queue for drainDPC.
func (t *reqTable) contain(p *Port) {
	for _, e := range t.order {
		if !e.done && e.out == p {
			t.answer(e, p)
			p.dpcQ = append(p.dpcQ, e)
		}
	}
}

func (r *router) addPort(name string, vp2p *pci.ConfigSpace) *Port {
	p := &Port{r: r, index: len(r.ports), name: name, vp2p: vp2p}
	p.slave = mem.NewSlavePort(name+".slave", (*portSlave)(p))
	p.master = mem.NewMasterPort(name+".master", (*portMaster)(p))
	p.reqretryName = name + ".reqretry"
	p.respretryName = name + ".respretry"
	p.abortretryName = name + ".abortretry"
	p.reqretryFn = p.slave.SendReqRetry
	p.respretryFn = p.master.SendRespRetry
	p.reqQ = mem.NewSendQueue(r.eng, name+".reqq", r.cfg.BufferSize, func(pk *mem.Packet) bool {
		return p.master.SendTimingReq(pk)
	})
	p.reqQ.Segment("switch-arb")
	p.reqQ.OnFree(func() { p.wakeWaiters(&p.reqWaiters, true) })
	p.respQ = mem.NewSendQueue(r.eng, name+".respq", r.cfg.BufferSize, func(pk *mem.Packet) bool {
		return p.slave.SendTimingResp(pk)
	})
	p.respQ.Segment("switch-arb")
	p.respQ.OnFree(func() {
		p.wakeWaiters(&p.respWaiters, false)
		if p.abortRetryPending {
			p.abortRetryPending = false
			r.eng.ScheduleAt(p.abortretryName, r.eng.Now(), sim.PriorityRetry, p.reqretryFn)
		}
	})
	if vp2p != nil {
		vp2p.OnWrite = func(int, int, uint32) { p.winValid = false }
	}
	reg := r.eng.Stats()
	reg.CounterFunc(name+".req_in", func() uint64 { return p.reqIn })
	reg.CounterFunc(name+".resp_in", func() uint64 { return p.respIn })
	reg.CounterFunc(name+".aborts", func() uint64 { return p.aborts })
	r.ports = append(r.ports, p)
	return p
}

// wakeWaiters grants the freed slot to the oldest waiting ingress port
// by telling its external peer to retry.
func (p *Port) wakeWaiters(list *[]*Port, req bool) {
	if len(*list) == 0 {
		return
	}
	w := (*list)[0]
	copy(*list, (*list)[1:])
	*list = (*list)[:len(*list)-1]
	eng := p.r.eng
	if req {
		eng.ScheduleAt(w.reqretryName, eng.Now(), sim.PriorityRetry, w.reqretryFn)
	} else {
		eng.ScheduleAt(w.respretryName, eng.Now(), sim.PriorityRetry, w.respretryFn)
	}
}

func addWaiter(list *[]*Port, p *Port) {
	for _, w := range *list {
		if w == p {
			return
		}
	}
	*list = append(*list, p)
}

// routeRequest picks the egress port for a request entering at `in`.
// Downward traffic matches VP2P windows; unmatched traffic goes
// upstream (DMA toward memory) unless it entered there, in which case
// it is a master abort.
func (r *router) routeRequest(in *Port, pkt *mem.Packet) (*Port, bool) {
	if in.index == 0 && r.checkUpstreamWindow && !in.claims(pkt.Addr) {
		// Switch semantics: "the upstream slave port accepts an address
		// range based on the (I/O and memory) base and limit register
		// values stored in the upstream VP2P."
		return nil, false
	}
	for _, p := range r.ports[1:] {
		if p != in && p.claims(pkt.Addr) {
			if r.noP2P && in.index != 0 {
				// Peer-to-peer opt-out: force the request out the
				// upstream port so it reflects off the root complex.
				break
			}
			if in.index != 0 {
				r.p2pTurns++ // switch-level turnaround
			}
			return p, true
		}
	}
	if in.index != 0 {
		if r.allowHairpin && in.claims(pkt.Addr) {
			// RC reflection: the address lives below the ingress root
			// port itself, so turn the request around on that port.
			r.p2pTurns++
			return in, true
		}
		return r.ports[0], true // upstream, toward the host
	}
	return nil, false
}

// routeResponse picks the egress port for a response by its PCI bus
// number: "If the response packet's bus number falls within the range
// defined by a particular VP2P secondary and subordinate bus numbers,
// the response packet is forwarded out to the corresponding slave port.
// If no match is found, the response packet is forwarded to the
// upstream slave port" (§V-A).
func (r *router) routeResponse(in *Port, pkt *mem.Packet) *Port {
	for _, p := range r.ports[1:] {
		if p.claimsBus(pkt.BusNum) {
			if r.noP2P && in.index != 0 && p.index != 0 {
				// Mirror the request-path opt-out: a peer-to-peer
				// completion must reflect off the root complex too, not
				// short-cut across the switch.
				return r.ports[0]
			}
			return p
		}
	}
	return r.ports[0]
}

// portSlave adapts Port to mem.SlaveOwner (ingress requests, egress
// responses).
type portSlave Port

func (o *portSlave) p() *Port { return (*Port)(o) }

func (o *portSlave) RecvTimingReq(_ *mem.SlavePort, pkt *mem.Packet) bool {
	p := o.p()
	r := p.r
	// Stamp the response-routing bus number on first entry into the
	// fabric (§V-A).
	if pkt.BusNum == mem.NoBus {
		if p.index == 0 {
			pkt.BusNum = r.upstreamStampBus
		} else {
			_, sec, _ := pci.BridgeBusNumbers(p.vp2p)
			pkt.BusNum = int(sec)
		}
	}
	dst, ok := r.routeRequest(p, pkt)
	if !ok {
		// Master abort: complete the request locally with all-ones
		// data, as a real fabric does for unclaimed addresses.
		return p.masterAbort(pkt)
	}
	if dst.dpc.Contained() {
		// The sub-tree below dst is contained: answer at the port
		// instead of forwarding into the dead link.
		return dst.containedAbort(p, pkt)
	}
	if dst.reqQ.Full() {
		addWaiter(&dst.reqWaiters, p)
		return false
	}
	p.reqIn++
	if r.reqs != nil && !pkt.Posted {
		r.reqs.track(pkt, p, dst)
	}
	dst.reqQ.Push(pkt, r.eng.Now()+r.cfg.Latency)
	return true
}

func (o *portSlave) RecvRespRetry(*mem.SlavePort) { o.p().respQ.RetryReceived() }

func (o *portSlave) AddrRanges(*mem.SlavePort) mem.RangeList { return nil }

// masterAbort completes an unroutable request with all-ones data
// through the ingress port's own response queue.
func (p *Port) masterAbort(pkt *mem.Packet) bool {
	if !p.answerInPlace(pkt, false) {
		return false
	}
	p.aborts++
	if tr := p.r.eng.Tracer(); tr.On(trace.CatFault) {
		tr.Emit(trace.CatFault, uint64(p.r.eng.Now()), p.name,
			"master-abort", pkt.ID, fmt.Sprintf("unclaimed addr %#x", pkt.Addr))
	}
	return true
}

// portMaster adapts Port to mem.MasterOwner (ingress responses, egress
// requests).
type portMaster Port

func (o *portMaster) p() *Port { return (*Port)(o) }

func (o *portMaster) RecvTimingResp(_ *mem.MasterPort, pkt *mem.Packet) bool {
	p := o.p()
	r := p.r
	if r.reqs != nil && p.index != 0 && !r.reqs.observe(pkt.ID) {
		// Late completion for a request the timeout or containment
		// already answered: swallow it before it reaches the requester
		// twice.
		return true
	}
	dst := r.routeResponse(p, pkt)
	if dst.respQ.Full() {
		addWaiter(&dst.respWaiters, p)
		return false
	}
	p.respIn++
	dst.respQ.Push(pkt, r.eng.Now()+r.cfg.Latency)
	return true
}

func (o *portMaster) RecvReqRetry(*mem.MasterPort) { o.p().reqQ.RetryReceived() }

// RootComplexConfig parameterizes a root complex.
type RootComplexConfig struct {
	RouterConfig
	// NumRootPorts is the number of downstream root ports (the paper's
	// model implements three).
	NumRootPorts int
}

// RootComplex is the paper's root complex model (§V-A, Fig 6): an
// upstream port toward the memory system (DMA flows out of its master
// half into the IOCache; CPU requests flow into its slave half from the
// MemBus side) and root ports, each with a VP2P registered with the PCI
// host on internal bus 0.
type RootComplex struct {
	router
}

// NewRootComplex builds the root complex and registers its VP2Ps with
// the PCI host as devices 0..N-1 on bus 0.
func NewRootComplex(eng *sim.Engine, name string, host *pci.Host, cfg RootComplexConfig) *RootComplex {
	cfg.RouterConfig.applyDefaults()
	if cfg.NumRootPorts == 0 {
		cfg.NumRootPorts = 3
	}
	// The Intel Wildcat Point root port IDs of §V-A.
	ids := []uint16{pci.DeviceWildcatPort0, pci.DeviceWildcatPort1, pci.DeviceWildcatPort2}
	rc := &RootComplex{router{
		eng: eng, name: name, cfg: cfg.RouterConfig,
		upstreamStampBus: 0,
		allowHairpin:     true,
	}}
	rc.addPort(name+".upstream", nil)
	for i := 0; i < cfg.NumRootPorts; i++ {
		vp2p := pci.NewType1Space(fmt.Sprintf("%s.vp2p%d", name, i), pci.Ident{
			VendorID:  pci.VendorIntel,
			DeviceID:  ids[i%len(ids)],
			ClassCode: pci.ClassBridgePCI,
		})
		pci.AddPCIeCap(vp2p, pci.PCIeCapConfig{
			PortType:        pci.PCIePortRootPort,
			LinkSpeed:       pci.LinkSpeedGen2,
			LinkWidth:       4,
			SlotImplemented: true,
		})
		port := rc.addPort(fmt.Sprintf("%s.rootport%d", name, i), vp2p)
		port.aer = pci.AddAER(vp2p)
		if cfg.EnableDPC {
			port.armDPC()
		}
		host.Register(pci.NewBDF(0, uint8(i), 0), vp2p)
	}
	if cfg.CompletionTimeout > 0 || cfg.EnableDPC {
		rc.reqs = newReqTable(&rc.router, cfg.CompletionTimeout)
	}
	return rc
}

// CompletionTimeouts returns how many error completions the root
// complex synthesized and how many late genuine completions it dropped.
func (rc *RootComplex) CompletionTimeouts() (fired, late uint64) {
	if rc.reqs == nil {
		return 0, 0
	}
	return rc.reqs.fired, rc.reqs.late
}

// UpstreamSlave returns the port half accepting processor requests
// (wired to the bridge from the MemBus).
func (rc *RootComplex) UpstreamSlave() *mem.SlavePort { return rc.ports[0].slave }

// UpstreamMaster returns the port half issuing DMA requests toward the
// IOCache.
func (rc *RootComplex) UpstreamMaster() *mem.MasterPort { return rc.ports[0].master }

// RootPort returns downstream root port i (0-based).
func (rc *RootComplex) RootPort(i int) *Port { return rc.ports[i+1] }

// NumRootPorts returns the downstream port count.
func (rc *RootComplex) NumRootPorts() int { return len(rc.ports) - 1 }

// Reflections counts peer-to-peer requests that hairpinned off a root
// port — traffic a noP2P switch forced up instead of turning around.
func (rc *RootComplex) Reflections() uint64 { return rc.p2pTurns }

// SwitchConfig parameterizes a switch.
type SwitchConfig struct {
	RouterConfig
	// NumDownstreamPorts is the downstream port count.
	NumDownstreamPorts int
	// UpstreamBus/InternalBus pre-assign the configuration bus numbers
	// the switch's VP2Ps are registered under (gem5's PCI host requires
	// static registration; the system builder picks numbers matching
	// the enumeration DFS order).
	UpstreamBus uint8
	InternalBus uint8
	// NoP2P disables downstream-to-downstream turnaround: peer traffic
	// (requests and their completions) is forced out the upstream port
	// and reflects off the root complex instead. The default (false)
	// turns peer-to-peer traffic around at the switch.
	NoP2P bool
}

// Switch is the paper's store-and-forward switch (§V-B): one upstream
// port and N downstream ports, each represented by a VP2P. It is "built
// upon the root complex model"; the differences are that the upstream
// port also has a VP2P, and the upstream ingress accepts only addresses
// inside that VP2P's windows.
type Switch struct {
	router
}

// NewSwitch builds a switch and registers its VP2Ps with the PCI host:
// the upstream VP2P as device 0 on UpstreamBus, downstream VP2Ps as
// devices 0..N-1 on InternalBus.
func NewSwitch(eng *sim.Engine, name string, host *pci.Host, cfg SwitchConfig) *Switch {
	cfg.RouterConfig.applyDefaults()
	if cfg.NumDownstreamPorts == 0 {
		cfg.NumDownstreamPorts = 2
	}
	sw := &Switch{router{
		eng: eng, name: name, cfg: cfg.RouterConfig,
		upstreamStampBus:    int(cfg.UpstreamBus),
		checkUpstreamWindow: true,
		noP2P:               cfg.NoP2P,
	}}
	up := pci.NewType1Space(name+".upvp2p", pci.Ident{
		VendorID: pci.VendorIntel, DeviceID: 0x8c10, ClassCode: pci.ClassBridgePCI,
	})
	pci.AddPCIeCap(up, pci.PCIeCapConfig{
		PortType: pci.PCIePortSwitchUpstream, LinkSpeed: pci.LinkSpeedGen2, LinkWidth: 4,
	})
	upPort := sw.addPort(name+".upstream", up)
	upPort.aer = pci.AddAER(up)
	host.Register(pci.NewBDF(cfg.UpstreamBus, 0, 0), up)
	for i := 0; i < cfg.NumDownstreamPorts; i++ {
		down := pci.NewType1Space(fmt.Sprintf("%s.downvp2p%d", name, i), pci.Ident{
			VendorID: pci.VendorIntel, DeviceID: 0x8c11, ClassCode: pci.ClassBridgePCI,
		})
		pci.AddPCIeCap(down, pci.PCIeCapConfig{
			PortType: pci.PCIePortSwitchDownstream, LinkSpeed: pci.LinkSpeedGen2,
			LinkWidth: 1, SlotImplemented: true,
		})
		downPort := sw.addPort(fmt.Sprintf("%s.downport%d", name, i), down)
		downPort.aer = pci.AddAER(down)
		if cfg.EnableDPC {
			downPort.armDPC()
		}
		host.Register(pci.NewBDF(cfg.InternalBus, uint8(i), 0), down)
	}
	if cfg.EnableDPC {
		// Switches forward and let the root complex own the timeout.
		sw.reqs = newReqTable(&sw.router, 0)
	}
	return sw
}

// UpstreamPort returns the switch's upstream port; wire its link with
// ConnectUpstreamLink.
func (s *Switch) UpstreamPort() *Port { return s.ports[0] }

// ConnectUpstreamLink wires a link's downstream end to the switch's
// upstream port, advertising the port's receiver credits on FC links
// (see Port.ConnectLink).
func (s *Switch) ConnectUpstreamLink(l *Link) {
	mem.Connect(s.ports[0].master, l.Down().SlavePort())
	mem.Connect(l.Down().MasterPort(), s.ports[0].slave)
	l.Down().AdvertiseCredits(s.ports[0].advertCredits())
	s.ports[0].watchLink(l, false)
}

// DownstreamPort returns downstream port i (0-based).
func (s *Switch) DownstreamPort(i int) *Port { return s.ports[i+1] }

// NumDownstreamPorts returns the downstream port count.
func (s *Switch) NumDownstreamPorts() int { return len(s.ports) - 1 }

// P2PTurnarounds counts requests that entered one downstream port and
// left through another without traversing the uplink.
func (s *Switch) P2PTurnarounds() uint64 { return s.p2pTurns }

// Aborts returns the total master-abort count across ports.
func (r *router) Aborts() uint64 {
	var n uint64
	for _, p := range r.ports {
		n += p.aborts
	}
	return n
}
