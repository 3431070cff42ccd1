package pcie

import (
	"fmt"

	"pciesim/internal/fault"
	"pciesim/internal/mem"
	"pciesim/internal/pci"
	"pciesim/internal/sim"
	"pciesim/internal/stats"
	"pciesim/internal/trace"
)

// LinkConfig parameterizes a PCI-Express link.
type LinkConfig struct {
	// Gen selects the signaling rate and encoding.
	Gen Generation
	// Width is the lane count (1..32).
	Width int
	// PropDelay is the propagation delay of the physical medium, added
	// after serialization.
	PropDelay sim.Tick
	// ReplayBufferSize bounds unacknowledged TLPs per interface. The
	// paper's validated configuration uses 4 — "enough TLP pcie-pkts
	// until the next ACK arrives based on the ack factor" — and sweeps
	// 1..4 in Fig 9(c).
	ReplayBufferSize int
	// MaxPayload is the maximum TLP payload (the modeled cache line
	// size); it enters the replay-timeout formula.
	MaxPayload int
	// Overheads is the Table I byte-overhead model.
	Overheads Overheads
	// Credits selects transaction-layer credit-based flow control: the
	// receive-side VC0 credit pool each interface advertises to its
	// peer (see credit.go). The zero value means infinite credits —
	// the legacy DLL-only link, bit-identical to the pre-FC simulator.
	// Routers typically override their side's advertisement from real
	// queue depths via Interface.AdvertiseCredits.
	Credits CreditConfig
	// Seed seeds the fault-injection generator.
	Seed uint64
	// Fault optionally attaches a deterministic fault-injection plan:
	// per-direction corruption/drop rates and scripts, plus surprise
	// link-down windows. Nil means a fault-free link.
	Fault *fault.Plan
	// Degrade arms adaptive link degradation (see degrade.go): sustained
	// error windows make a retrain come back at a reduced Gen/Width,
	// with periodic upgrade retrains on exponential backoff. Nil
	// disables degradation entirely.
	Degrade *DegradeConfig
}

// DefaultLinkConfig returns the paper's baseline: Gen2 x1, replay
// buffer of 4, 64-byte max payload, Table I overheads.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		Gen:              Gen2,
		Width:            1,
		PropDelay:        sim.Nanosecond,
		ReplayBufferSize: 4,
		MaxPayload:       64,
		Overheads:        DefaultOverheads(),
	}
}

func (c *LinkConfig) applyDefaults() {
	if c.Gen == 0 {
		c.Gen = Gen2
	}
	if c.Width == 0 {
		c.Width = 1
	}
	if c.ReplayBufferSize == 0 {
		c.ReplayBufferSize = 4
	}
	if c.MaxPayload == 0 {
		c.MaxPayload = 64
	}
	if c.Overheads == (Overheads{}) {
		c.Overheads = DefaultOverheads()
	}
	if c.Width < 1 || c.Width > 32 {
		panic(fmt.Sprintf("pcie: link width %d out of range (1..32)", c.Width))
	}
	if err := c.Credits.Validate(); err != nil {
		panic(err.Error())
	}
}

// linkState is the LTSSM-visible condition of the link as a whole.
type linkState int

const (
	linkUp   linkState = iota // normal operation
	linkDown                  // transient surprise-down window; retrain pending
	linkDead                  // permanently down; traffic is black-holed
)

// Link is a full-duplex PCI-Express link: "two unidirectional links,
// one used for transmitting packets upstream (toward the root complex),
// and one used for transmitting packets downstream" (§V-C). Each end is
// an Interface with the full TX/RX data-link-layer state of Fig 8.
type Link struct {
	eng  *sim.Engine
	name string
	cfg  LinkConfig
	// ord is the builder-assigned creation index (zero for links made
	// with plain NewLink): the static tie-break the event heap uses
	// when wire deliveries from different links collide on the full
	// (when, prio, sched) key. The topology builder assigns the same
	// ord regardless of partitioning, so serial and parallel runs
	// resolve those ties identically.
	ord uint64

	up   *Interface // the end wired to the upstream component (root/switch port)
	down *Interface // the end wired to the downstream component (device/switch)

	plan       *fault.Plan
	planActive bool
	state      linkState
	retrains   uint64

	// deg is the adaptive-degradation ladder; nil when unarmed.
	deg *degradeState

	// replayTimeout and ackPeriod cache the replay and ACK timer
	// intervals at the current Gen/Width; every transmit and every ACK
	// reads them. refreshTimers recomputes both wherever Gen/Width
	// change.
	replayTimeout, ackPeriod sim.Tick

	// removed distinguishes a surprise-removed (re-insertable) link
	// from one declared permanently dead.
	removed   bool
	removals  uint64
	reinserts uint64

	// notify reports link lifecycle transitions to subscribers: the
	// port above, the port below, and the topology layer.
	notify []func(LinkNotice)
}

// LinkNotice is a link lifecycle transition reported to the component
// wired above the link.
type LinkNotice int

const (
	// NoticeRetrained: the link came back up, possibly at a new
	// Gen/Width (read CurrentGen/CurrentWidth).
	NoticeRetrained LinkNotice = iota
	// NoticeDead: the link was declared permanently down.
	NoticeDead
	// NoticeRemoved: the downstream device was surprise-removed.
	NoticeRemoved
	// NoticeReinserted: the device was re-seated; retraining started.
	NoticeReinserted
)

func (n LinkNotice) String() string {
	switch n {
	case NoticeRetrained:
		return "retrained"
	case NoticeDead:
		return "dead"
	case NoticeRemoved:
		return "removed"
	case NoticeReinserted:
		return "reinserted"
	}
	return fmt.Sprintf("notice(%d)", int(n))
}

// SetNotify subscribes a lifecycle callback. Multiple subscribers are
// supported (the ports at both ends plus the topology layer); they are
// invoked in subscription order.
func (l *Link) SetNotify(fn func(LinkNotice)) { l.notify = append(l.notify, fn) }

func (l *Link) notifyAll(n LinkNotice) {
	for _, fn := range l.notify {
		fn(n)
	}
}

// NewLink creates a link.
func NewLink(eng *sim.Engine, name string, cfg LinkConfig) *Link {
	cfg.applyDefaults()
	l := &Link{eng: eng, name: name, cfg: cfg, plan: cfg.Fault}
	l.refreshTimers()
	if err := l.plan.Normalize(); err != nil {
		panic(fmt.Sprintf("pcie: link %s: %v", name, err))
	}
	l.planActive = l.plan.Active()
	seed := cfg.Seed
	if l.plan != nil && l.plan.Seed != 0 {
		seed = l.plan.Seed
	}
	l.up = newInterface(l, eng, name+".up", seed*2+1)
	l.down = newInterface(l, eng, name+".down", seed*2+2)
	l.up.peer = l.down
	l.down.peer = l.up
	if cfg.Degrade == nil && l.plan != nil && len(l.plan.Downtrains) > 0 {
		// A plan that forces downtrains implies the default policy.
		d := DefaultDegradeConfig()
		l.cfg.Degrade = &d
	}
	if l.cfg.Degrade != nil {
		l.deg = newDegradeState(l, *l.cfg.Degrade)
	}
	if l.plan != nil {
		l.up.inj = fault.NewInjector(l.plan.Up, l.up.rng)
		l.down.inj = fault.NewInjector(l.plan.Down, l.down.rng)
		for _, w := range l.plan.Windows {
			if w.At < eng.Now() {
				continue // windows in the past are ignored
			}
			w := w
			eng.ScheduleAt(name+".linkdown", w.At, sim.PriorityTimer, func() { l.goDown(w) })
		}
		for _, at := range l.plan.Downtrains {
			if at < eng.Now() {
				continue
			}
			eng.ScheduleAt(name+".downtrain", at, sim.PriorityTimer, l.forceDowntrain)
		}
		if len(l.plan.Hotplugs) > 0 {
			l.registerHotplugStats()
			for _, h := range l.plan.Hotplugs {
				if h.RemoveAt < eng.Now() {
					continue
				}
				h := h
				eng.ScheduleAt(name+".hotplug-remove", h.RemoveAt, sim.PriorityTimer, l.SurpriseRemove)
				if !h.Permanent() {
					eng.ScheduleAt(name+".hotplug-reinsert", h.RemoveAt+h.ReinsertAfter,
						sim.PriorityTimer, l.Reinsert)
				}
			}
		}
	}
	return l
}

// NewLinkSplit creates a link whose two ends live on different engines
// (timing domains): up-side events run on upEng, down-side events on
// downEng, and every wire crossing is ferried between the domains with
// sim.CrossSchedule at its full serialization + propagation latency —
// which is exactly the lookahead the conservative coordinator relies
// on. Links with a fault plan or a degradation policy mutate shared
// link state from timer events and must stay within one domain; the
// partitioner pins them, and this constructor enforces it.
//
// ord is the link's creation index in build order, the deterministic
// tie-break for simultaneous wire deliveries from different links
// (sim.CrossSchedule's ord).
func NewLinkSplit(upEng, downEng *sim.Engine, name string, ord uint64, cfg LinkConfig) *Link {
	if upEng == downEng {
		// Same domain: an ordinary link (fault plans and degradation
		// are fine here), but it keeps the builder's ord so
		// simultaneous deliveries order the same way no matter how the
		// fabric was partitioned (or not partitioned at all).
		l := NewLink(upEng, name, cfg)
		l.ord = ord
		return l
	}
	if cfg.Fault != nil {
		panic(fmt.Sprintf("pcie: split link %s: fault plans require a single-domain link", name))
	}
	if cfg.Degrade != nil {
		panic(fmt.Sprintf("pcie: split link %s: degradation requires a single-domain link", name))
	}
	cfg.applyDefaults()
	l := &Link{eng: upEng, name: name, cfg: cfg, ord: ord}
	l.refreshTimers()
	seed := cfg.Seed
	l.up = newInterface(l, upEng, name+".up", seed*2+1)
	l.down = newInterface(l, downEng, name+".down", seed*2+2)
	l.up.peer = l.down
	l.down.peer = l.up
	return l
}

// registerHotplugStats publishes the hotplug counters; called only when
// the plan schedules hot-plug events, so unarmed dumps are unchanged.
func (l *Link) registerHotplugStats() {
	r := l.eng.Stats()
	pfx := "pcie." + l.name + ".hotplug."
	r.CounterFunc(pfx+"removals", func() uint64 { return l.removals })
	r.CounterFunc(pfx+"reinserts", func() uint64 { return l.reinserts })
}

// Up returns the interface to wire to the upstream component.
func (l *Link) Up() *Interface { return l.up }

// Down returns the interface to wire to the downstream component.
func (l *Link) Down() *Interface { return l.down }

// Config returns the link's (defaulted) configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Retrains returns how many surprise-down windows the link has
// recovered from.
func (l *Link) Retrains() uint64 { return l.retrains }

// Dead reports whether the link has been declared permanently down.
func (l *Link) Dead() bool { return l.state == linkDead }

// IsDown reports whether the link is currently unable to carry traffic
// (transiently down or dead).
func (l *Link) IsDown() bool { return l.state != linkUp }

func (l *Link) deadThreshold() int {
	if l.plan == nil {
		return 0
	}
	return l.plan.DeadThreshold
}

// ReplayTimeout returns the link's replay timer interval.
func (l *Link) ReplayTimeout() sim.Tick { return l.replayTimeout }

// AckPeriod returns the link's ACK batching timer interval.
func (l *Link) AckPeriod() sim.Tick { return l.ackPeriod }

// refreshTimers recomputes the cached timer intervals from the current
// Gen/Width.
func (l *Link) refreshTimers() {
	c := &l.cfg
	l.replayTimeout = ReplayTimeout(c.Gen, c.Width, c.MaxPayload, c.Overheads)
	l.ackPeriod = AckPeriodClamped(c.Gen, c.Width, c.MaxPayload, c.Overheads)
}

// AckPeriodClamped is AckTimerPeriod floored at one symbol time so
// degenerate configurations cannot arm a zero-period timer.
func AckPeriodClamped(g Generation, width, maxPayload int, o Overheads) sim.Tick {
	p := AckTimerPeriod(g, width, maxPayload, o)
	if st := g.SymbolTime(); p < st {
		p = st
	}
	return p
}

// --- link-down / retrain / dead state machine ------------------------

// goDown opens a surprise-down window: both interfaces freeze their
// timers, admission refuses, and anything on the wire is lost. A
// finite window schedules the retrain; a permanent one kills the link.
func (l *Link) goDown(w fault.Window) {
	if l.state != linkUp {
		return
	}
	if w.Permanent() {
		l.markDead()
		return
	}
	l.state = linkDown
	if tr := l.eng.Tracer(); tr.On(trace.CatFault) {
		tr.Emit(trace.CatFault, uint64(l.eng.Now()), "pcie."+l.name,
			"link-down", 0, fmt.Sprintf("duration=%v", w.Duration))
	}
	l.up.pause()
	l.down.pause()
	l.eng.Schedule(l.name+".retrain", w.Duration+l.plan.RetrainLatency, l.goUp)
}

// goUp completes retraining. DLL state (sequence numbers, replay
// buffers) survives the window — the link resumes by replaying every
// unacknowledged TLP, preserving exactly-once delivery. A pending
// degradation/upgrade target is applied first, so the resumed link
// runs at the new Gen/Width. Per the spec's DL_Down rule, the FC
// InitFC1/InitFC2 handshake re-runs from scratch after every down
// (Interface.resume → fcState.resume).
func (l *Link) goUp() {
	if l.state != linkDown {
		return
	}
	l.applyPendingLevel()
	l.state = linkUp
	l.retrains++
	if tr := l.eng.Tracer(); tr.On(trace.CatFault) {
		tr.Emit(trace.CatFault, uint64(l.eng.Now()), "pcie."+l.name, "retrain", 0, "")
	}
	l.up.resume()
	l.down.resume()
	l.scheduleUpgrade()
	l.notifyAll(NoticeRetrained)
}

// markDead declares the link permanently down: buffers are flushed,
// AER surprise-down is latched at both ends, and from now on admitted
// TLPs are black-holed so upstream queues drain and requesters fail by
// completion timeout instead of deadlocking the event queue.
func (l *Link) markDead() {
	if l.state == linkDead {
		return
	}
	l.state = linkDead
	l.removed = false
	if tr := l.eng.Tracer(); tr.On(trace.CatFault) {
		tr.Emit(trace.CatFault, uint64(l.eng.Now()), "pcie."+l.name, "link-dead", 0,
			fmt.Sprintf("flushing up=%d down=%d unacked TLPs",
				len(l.up.replayBuf), len(l.down.replayBuf)))
	}
	l.flushBothEnds()
	l.notifyAll(NoticeDead)
}

// flushBothEnds flushes DLL and transaction-layer state on both
// interfaces after the link stopped carrying traffic for good (dead or
// surprise-removed).
func (l *Link) flushBothEnds() {
	if l.deg != nil {
		l.eng.Deschedule(l.deg.upgradeTmr)
	}
	for _, i := range []*Interface{l.up, l.down} {
		i.pause()
		i.stats.FlushedTLPs += uint64(len(i.replayBuf))
		i.replayBuf = i.replayBuf[:0]
		i.bufGauge.Set(0)
		i.freshQ = i.freshQ[:0]
		i.replayQ = i.replayQ[:0]
		i.ackPend, i.nakPend = false, false
		if i.fc != nil {
			i.fc.flushDead()
		}
		i.aer.ReportUncorrectable(pci.AERUncSurpriseDown)
		i.notifyLocalRetry()
	}
}

// SurpriseRemove yanks the device below the link out of its slot:
// traffic in flight is lost, both ends flush, and the link behaves
// like a dead link (admitted TLPs are black-holed) until Reinsert.
func (l *Link) SurpriseRemove() {
	if l.state == linkDead {
		return
	}
	l.state = linkDead
	l.removed = true
	l.removals++
	if tr := l.eng.Tracer(); tr.On(trace.CatFault) {
		tr.Emit(trace.CatFault, uint64(l.eng.Now()), "pcie."+l.name, "surprise-remove", 0,
			fmt.Sprintf("flushing up=%d down=%d unacked TLPs",
				len(l.up.replayBuf), len(l.down.replayBuf)))
	}
	l.flushBothEnds()
	l.notifyAll(NoticeRemoved)
}

// Reinsert re-seats a surprise-removed device. Both ends reset their
// DLL from scratch (sequence numbers, queues, FC handshake) and the
// link retrains, carrying traffic again after the retrain latency.
func (l *Link) Reinsert() {
	if l.state != linkDead || !l.removed {
		return
	}
	l.removed = false
	l.reinserts++
	if tr := l.eng.Tracer(); tr.On(trace.CatFault) {
		tr.Emit(trace.CatFault, uint64(l.eng.Now()), "pcie."+l.name, "reinsert", 0, "")
	}
	l.up.resetDLL()
	l.down.resetDLL()
	l.state = linkDown
	l.notifyAll(NoticeReinserted)
	l.eng.Schedule(l.name+".hotplug-retrain", l.retrainLatency(), l.goUp)
}

// retrainLatency is the LTSSM recovery time for hotplug retrains: the
// plan's RetrainLatency, or a 20 µs default when the plan leaves it
// zero (a hotplug retrain is a full from-scratch negotiation and is
// never instantaneous).
func (l *Link) retrainLatency() sim.Tick {
	if l.plan != nil && l.plan.RetrainLatency > 0 {
		return l.plan.RetrainLatency
	}
	return 20 * sim.Microsecond
}

// Removed reports whether the link's device is currently surprise-
// removed.
func (l *Link) Removed() bool { return l.state == linkDead && l.removed }

// Removals returns how many surprise removals the link has seen.
func (l *Link) Removals() uint64 { return l.removals }

// Reinserts returns how many re-insertions the link has seen.
func (l *Link) Reinserts() uint64 { return l.reinserts }

// resetDLL returns an interface to its power-on DLL state for a
// hotplug retrain: fresh sequence numbers, empty queues, and (on FC
// links) a from-scratch credit handshake once the link comes up.
func (i *Interface) resetDLL() {
	i.sendSeq, i.recvSeq = 1, 1
	i.lastDelivered = 0
	i.replayBuf = i.replayBuf[:0]
	i.freshQ = i.freshQ[:0]
	i.replayQ = i.replayQ[:0]
	i.ackPend, i.nakPend = false, false
	i.busyUntil = 0
	i.consecTimeouts = 0
	i.bufGauge.Set(0)
}

// LinkStats counts per-interface protocol events.
type LinkStats struct {
	TLPsAccepted   uint64 // TLPs taken from the local component
	TLPsTx         uint64 // TLP transmissions, including replays
	ReplaysTx      uint64 // retransmitted TLPs
	Timeouts       uint64 // replay-timer expirations
	AcksTx         uint64
	NaksTx         uint64
	AcksRx         uint64
	NaksRx         uint64
	TLPsDelivered  uint64 // handed to the local component successfully
	DeliveryRefuse uint64 // local component refused; TLP dropped for replay
	Discarded      uint64 // out-of-sequence arrivals dropped
	CRCErrors      uint64 // corrupted TLPs caught by the receiver
	Throttled      uint64 // local sends refused because the replay buffer was full
	BadDLLPs       uint64 // corrupted ACK/NAK DLLPs dropped by the receiver's CRC
	Dropped        uint64 // packets lost on the wire by fault injection
	DownDrops      uint64 // packets lost in flight during a link-down window
	DownRefused    uint64 // local sends refused while the link was transiently down
	DeadDiscards   uint64 // TLPs black-holed after the link was declared dead
	FlushedTLPs    uint64 // unacknowledged TLPs flushed when the link died

	// Flow-control counters; always zero on legacy (infinite-credit)
	// links, where no FC machinery runs.
	InitFCTx        uint64 // InitFC1/InitFC2 DLLPs sent
	InitFCRx        uint64 // InitFC1/InitFC2 DLLPs received
	UpdateFCTx      uint64 // UpdateFC DLLPs sent
	UpdateFCRx      uint64 // UpdateFC DLLPs received
	UpdateFCDropped uint64 // UpdateFC DLLPs lost to targeted fault injection
	FCStallsP       uint64 // posted TLP sends refused for lack of credits
	FCStallsNP      uint64 // non-posted TLP sends refused for lack of credits
	FCStallsCpl     uint64 // completion sends refused for lack of credits
	RxQueued        uint64 // TLPs queued at the receive transaction layer
	RxRefused       uint64 // local-component refusals of queued TLPs (retried)
	RxFlushed       uint64 // queued TLPs discarded when the link died
}

// FCStalls returns the credit-starvation refusals for one class.
func (s LinkStats) FCStalls(cl FCClass) uint64 {
	switch cl {
	case FCPosted:
		return s.FCStallsP
	case FCNonPosted:
		return s.FCStallsNP
	default:
		return s.FCStallsCpl
	}
}

// ReplayRate returns the fraction of TLP transmissions that were
// replays — the paper's "27% of the transmitted packets experience
// replay" metric for Fig 9(b).
func (s LinkStats) ReplayRate() float64 {
	if s.TLPsTx == 0 {
		return 0
	}
	return float64(s.ReplaysTx) / float64(s.TLPsTx)
}

// TimeoutRate returns timeouts as a fraction of TLPs accepted for
// transmission — the Fig 9(c)/(d) metric.
func (s LinkStats) TimeoutRate() float64 {
	if s.TLPsAccepted == 0 {
		return 0
	}
	return float64(s.Timeouts) / float64(s.TLPsAccepted)
}

// Interface is one end of a link: Fig 8's TX logic (replay buffer,
// sending sequence number, replay timer) plus RX logic (receiving
// sequence number, ACK timer).
type Interface struct {
	link *Link
	// eng is the engine this end's events run on: the link's engine on
	// an ordinary link, this side's domain engine on a split link. All
	// of an interface's DLL state is owned by this engine's domain.
	eng  *sim.Engine
	name string
	peer *Interface

	slave  *mem.SlavePort  // local component sends requests here
	master *mem.MasterPort // local component receives requests here

	// --- TX state ---
	sendSeq   uint64 // next sequence number to assign (first TLP gets 1)
	replayBuf []*PciePkt
	freshQ    []*PciePkt
	replayQ   []*PciePkt
	ackPend   bool
	nakPend   bool
	nakSeq    uint64
	busyUntil sim.Tick
	txEv      *sim.Event
	replayTmr *sim.Event

	reqRetryPending  bool
	respRetryPending bool

	// --- RX state ---
	recvSeq       uint64 // next expected sequence number
	lastDelivered uint64 // highest delivered, pending ACK
	ackTmr        *sim.Event
	ackArmed      bool

	// fc is the transaction-layer flow-control state; nil on legacy
	// (infinite-credit) links, where the DLL behaves exactly as before.
	fc *fcState

	rng   *sim.Rand
	inj   *fault.Injector // nil on fault-free links
	aer   *pci.AER        // AER capability of the attached component, if any
	stats LinkStats

	// Pre-built event names and callbacks, and the free lists of replay
	// entries and wire flights: all sit on the per-TLP path, where a
	// concat, a bound method value or a heap object per packet
	// dominates the profile. Both free lists belong to this interface
	// and are only touched by its own engine's domain.
	deliverName  string
	reqretryName string
	resretryName string
	reqretryFn   func()
	resretryFn   func()
	entryFree    []*PciePkt
	flightFree   []*flight

	// Registry hooks, resolved at construction: replay-buffer
	// occupancy and accept-to-release (ACK) latency in ticks. The
	// LinkStats counters themselves are exported through CounterFuncs
	// (see registerStats), so the struct stays the storage and the
	// hot path is unchanged.
	bufGauge *stats.Gauge
	ackLat   *stats.Histogram

	// Latency-attribution segment histograms (seg.txq-wait,
	// seg.replay-wait, seg.wire, seg.fc-stall), resolved lazily on
	// first observation: spans are armed after construction, and
	// registering only when armed keeps unarmed stats dumps
	// byte-identical.
	txqSeg, replaySeg, wireSeg, fcStallSeg *stats.Histogram

	// consecTimeouts counts replay-timer expirations since the last
	// ACK/NAK, for the plan's DeadThreshold surprise-down detection.
	consecTimeouts int
}

func newInterface(l *Link, eng *sim.Engine, name string, seed uint64) *Interface {
	i := &Interface{link: l, eng: eng, name: name, sendSeq: 1, recvSeq: 1, rng: sim.NewRand(seed)}
	i.deliverName = name + ".deliver"
	i.reqretryName = name + ".reqretry"
	i.resretryName = name + ".respretry"
	i.slave = mem.NewSlavePort(name+".slave", (*ifaceSlave)(i))
	i.master = mem.NewMasterPort(name+".master", (*ifaceMaster)(i))
	i.reqretryFn = i.slave.SendReqRetry
	i.resretryFn = i.master.SendRespRetry
	i.txEv = eng.NewEvent(name+".tx", i.txFire)
	i.replayTmr = eng.NewEvent(name+".replayTimer", i.replayTimeout)
	i.ackTmr = eng.NewEvent(name+".ackTimer", i.ackTimerFire)
	i.registerStats()
	if l.cfg.Credits.Finite() {
		i.fc = newFCState(i, l.cfg.Credits)
		i.fc.registerStats()
		// Kick off the InitFC handshake as soon as the engine runs.
		i.scheduleTx()
	}
	return i
}

// registerStats publishes every LinkStats counter under
// "pcie.<link>.<dir>.<counter>" (e.g. "pcie.disklink.up.replays") as
// closure-backed registry entries — the struct remains the storage, so
// incrementing a counter costs exactly what it did before — plus a
// replay-buffer occupancy gauge and an accept-to-ACK latency histogram.
func (i *Interface) registerStats() {
	r := i.eng.Stats()
	pfx := "pcie." + i.name + "."
	s := &i.stats
	for _, c := range []struct {
		name string
		f    *uint64
	}{
		{"accepted", &s.TLPsAccepted},
		{"tx", &s.TLPsTx},
		{"replays", &s.ReplaysTx},
		{"timeouts", &s.Timeouts},
		{"acks_tx", &s.AcksTx},
		{"naks_tx", &s.NaksTx},
		{"acks_rx", &s.AcksRx},
		{"naks_rx", &s.NaksRx},
		{"delivered", &s.TLPsDelivered},
		{"delivery_refused", &s.DeliveryRefuse},
		{"discarded", &s.Discarded},
		{"crc_errors", &s.CRCErrors},
		{"throttled", &s.Throttled},
		{"bad_dllps", &s.BadDLLPs},
		{"dropped", &s.Dropped},
		{"down_drops", &s.DownDrops},
		{"down_refused", &s.DownRefused},
		{"dead_discards", &s.DeadDiscards},
		{"flushed", &s.FlushedTLPs},
	} {
		f := c.f
		r.CounterFunc(pfx+c.name, func() uint64 { return *f })
	}
	i.bufGauge = r.Gauge(pfx + "replaybuf")
	i.ackLat = r.Histogram(pfx + "ack_latency")
}

// tracer returns the engine's tracer; nil (a no-op) when tracing is off.
func (i *Interface) tracer() *trace.Tracer { return i.eng.Tracer() }

// spanObserve charges one completed attribution segment ending now:
// the shared seg.<name> histogram, plus a begin/end trace span when
// the tracer records CatSpan. Call only when spans are armed.
func (i *Interface) spanObserve(seg **stats.Histogram, name string, begin sim.Tick, id uint64) {
	i.spanObserveAt(seg, name, begin, i.eng.Now(), id)
}

// spanObserveAt is spanObserve with an explicit end tick, for segments
// whose endpoint is known ahead of local time — the cross-domain wire
// crossing charges its span at transmit time because the sender may
// not run again at the arrival tick.
func (i *Interface) spanObserveAt(seg **stats.Histogram, name string, begin, end sim.Tick, id uint64) {
	if *seg == nil {
		*seg = i.eng.Seg(name)
	}
	(*seg).Observe(uint64(end - begin))
	if tr := i.tracer(); tr.On(trace.CatSpan) {
		tr.Span(uint64(begin), uint64(end), "pcie."+i.name, name, id, "")
	}
}

// SlavePort returns the port the local component's master (request)
// side connects to.
func (i *Interface) SlavePort() *mem.SlavePort { return i.slave }

// MasterPort returns the port the local component's slave (completer)
// side connects to.
func (i *Interface) MasterPort() *mem.MasterPort { return i.master }

// Stats returns a copy of the interface counters.
func (i *Interface) Stats() LinkStats { return i.stats }

// Name returns the interface's diagnostic name.
func (i *Interface) Name() string { return i.name }

// SetAER attaches the AER capability of the component wired to this
// interface; link-layer errors detected here are latched into it.
func (i *Interface) SetAER(a *pci.AER) { i.aer = a }

// --- transaction-layer admission -----------------------------------

// admit accepts a TLP from the local component if the replay buffer has
// space: "the interfaces transmit TLPs as long as their replay buffer
// has space. Once the replay buffer is filled up due to not receiving
// ACKs, the packet transmission is throttled" (§V-C).
func (i *Interface) admit(tlp *mem.Packet) bool {
	switch i.link.state {
	case linkDead:
		// Black-hole: accept and discard, so upstream queues keep
		// draining and requesters fail by completion timeout instead
		// of wedging behind a full send queue.
		i.stats.DeadDiscards++
		if tr := i.tracer(); tr.On(trace.CatFault) {
			tr.Emit(trace.CatFault, uint64(i.eng.Now()), "pcie."+i.name,
				"dead-discard", tlp.ID, "")
		}
		return true
	case linkDown:
		i.stats.DownRefused++
		return false
	}
	// Transaction-layer gate: with finite credits, a TLP is admitted
	// only when the peer has granted enough header+data credits for
	// its class. Credits are charged exactly once, here — DLL replays
	// retransmit against the same charge.
	var fcClass FCClass
	var fcData uint64
	if i.fc != nil {
		fcClass = FCClassOf(tlp)
		fcData = fcDataCredits(tlpPayloadBytes(tlp))
		if !i.fc.txReady(fcClass, fcData) {
			i.fc.noteStall(fcClass, tlp)
			return false
		}
	}
	if len(i.replayBuf) >= i.link.cfg.ReplayBufferSize {
		i.stats.Throttled++
		if tr := i.tracer(); tr.On(trace.CatTLP) {
			tr.Emit(trace.CatTLP, uint64(i.eng.Now()), "pcie."+i.name,
				"throttle", tlp.ID, "replay buffer full")
		}
		return false
	}
	if i.fc != nil {
		i.fc.consume(fcClass, fcData)
	}
	pp := i.newEntry()
	*pp = PciePkt{Kind: KindTLP, Seq: i.sendSeq, TLP: tlp,
		acceptedAt: i.eng.Now(), queuedAt: i.eng.Now(), inFreshQ: true}
	// Snapshot the wire size now: by the time a replay reads it, the
	// wrapped packet may have been turned into its response and recycled.
	pp.wire = i.link.cfg.Overheads.TLPWireBytes(pp.PayloadBytes())
	i.sendSeq++
	i.replayBuf = append(i.replayBuf, pp)
	i.freshQ = append(i.freshQ, pp)
	i.stats.TLPsAccepted++
	i.bufGauge.Set(int64(len(i.replayBuf)))
	if tr := i.tracer(); tr.On(trace.CatTLP) {
		tr.Emit(trace.CatTLP, uint64(i.eng.Now()), "pcie."+i.name,
			"accept", tlp.ID, fmt.Sprintf("seq=%d %v", pp.Seq, tlp.Cmd))
	}
	i.scheduleTx()
	return true
}

// ifaceSlave adapts the interface to mem.SlaveOwner (local requests in,
// local responses out).
type ifaceSlave Interface

func (o *ifaceSlave) i() *Interface { return (*Interface)(o) }

func (o *ifaceSlave) RecvTimingReq(_ *mem.SlavePort, pkt *mem.Packet) bool {
	i := o.i()
	if !i.admit(pkt) {
		i.reqRetryPending = true
		return false
	}
	return true
}

// RecvRespRetry: the local component refused an inbound response
// earlier and now has space. On an FC link the refused completion is
// queued at the transaction layer, so drain it now; on a legacy link
// the TLP was dropped for replay and the replay timer redelivers.
func (o *ifaceSlave) RecvRespRetry(*mem.SlavePort) {
	if fc := o.i().fc; fc != nil {
		fc.drain()
	}
}

// AddrRanges: a link is transparent; routing is done by the components.
func (o *ifaceSlave) AddrRanges(*mem.SlavePort) mem.RangeList { return nil }

// ifaceMaster adapts the interface to mem.MasterOwner (local responses
// in, local requests out).
type ifaceMaster Interface

func (o *ifaceMaster) i() *Interface { return (*Interface)(o) }

func (o *ifaceMaster) RecvTimingResp(_ *mem.MasterPort, pkt *mem.Packet) bool {
	i := o.i()
	if !i.admit(pkt) {
		i.respRetryPending = true
		return false
	}
	return true
}

// RecvReqRetry: inbound request delivery was refused earlier. On an FC
// link the refused request waits in the transaction-layer queue; on a
// legacy link replay will redeliver, so nothing to do.
func (o *ifaceMaster) RecvReqRetry(*mem.MasterPort) {
	if fc := o.i().fc; fc != nil {
		fc.drain()
	}
}

// --- TX engine ------------------------------------------------------

func (i *Interface) scheduleTx() {
	if i.link.state != linkUp {
		return
	}
	if i.txEv.Scheduled() {
		return
	}
	if !i.ackPend && !i.nakPend && len(i.replayQ) == 0 && len(i.freshQ) == 0 &&
		(i.fc == nil || !i.fc.dllpPending()) {
		return
	}
	when := i.eng.Now()
	if i.busyUntil > when {
		when = i.busyUntil
	}
	i.eng.ScheduleEvent(i.txEv, when, sim.PriorityDefault)
}

// txFire transmits the highest-priority pending packet: "(1) ACK DLLP;
// (2) Retransmitted pcie-pkts; (3) pcie-pkts containing TLPs received
// from a connected port" (§V-C).
func (i *Interface) txFire() {
	eng := i.eng
	if i.busyUntil > eng.Now() {
		i.scheduleTx()
		return
	}
	switch {
	case i.fc != nil && i.fc.initPending():
		// The InitFC handshake outranks everything: no TLP may be
		// admitted until both sides have exchanged credit pools.
		pp := i.fc.nextInitDLLP()
		i.stats.InitFCTx++
		if tr := i.tracer(); tr.On(trace.CatDLLP) {
			tr.Emit(trace.CatDLLP, uint64(eng.Now()), "pcie."+i.name,
				"dllp-tx", pp.FCHdr, fmt.Sprintf("%v %v", pp.Kind, pp.FCCl))
		}
		pp.Corrupted = i.inj.CorruptDLLP(eng.Now())
		i.transmit(&pp)
	case i.ackPend || i.nakPend:
		var pp PciePkt
		if i.nakPend {
			pp = PciePkt{Kind: KindNak, Seq: i.nakSeq}
			i.nakPend = false
			i.stats.NaksTx++
		} else {
			pp = PciePkt{Kind: KindAck, Seq: i.lastDelivered}
			i.ackPend = false
			i.stats.AcksTx++
		}
		if tr := i.tracer(); tr.On(trace.CatDLLP) {
			tr.Emit(trace.CatDLLP, uint64(eng.Now()), "pcie."+i.name,
				"dllp-tx", 0, fmt.Sprintf("%v seq=%d", pp.Kind, pp.Seq))
		}
		// DLLPs carry their own CRC and are subject to corruption just
		// like TLPs; a corrupted ACK/NAK is dropped by the receiver and
		// recovered by the ACK/replay timers, never replayed itself.
		pp.Corrupted = i.inj.CorruptDLLP(eng.Now())
		i.transmit(&pp)
	case i.fc != nil && i.fc.updPending():
		// Credit returns outrank TLPs so a congested wire cannot
		// starve the peer of the very credits that would unclog it.
		pp := i.fc.nextUpdDLLP()
		i.stats.UpdateFCTx++
		if tr := i.tracer(); tr.On(trace.CatDLLP) {
			tr.Emit(trace.CatDLLP, uint64(eng.Now()), "pcie."+i.name,
				"dllp-tx", pp.FCHdr, fmt.Sprintf("%v %v", pp.Kind, pp.FCCl))
		}
		if i.inj.DropUpdateFC(eng.Now()) {
			// Targeted fault: the DLLP occupies the wire but never
			// arrives. The bounded refresh timer re-advertises the
			// same cumulative counts, so the credits are not lost for
			// good.
			i.stats.UpdateFCDropped++
			i.busyUntil = eng.Now() + WireTime(i.link.cfg.Gen, i.link.cfg.Width, pp.WireBytes(i.link.cfg.Overheads))
			i.fc.noteUpdDropped()
			if tr := i.tracer(); tr.On(trace.CatFault) {
				tr.Emit(trace.CatFault, uint64(eng.Now()), "pcie."+i.name,
					"updatefc-drop", pp.FCHdr, pp.FCCl.String())
			}
		} else {
			pp.Corrupted = i.inj.CorruptDLLP(eng.Now())
			i.transmit(&pp)
		}
	case len(i.replayQ) > 0:
		pp := popFront(&i.replayQ)
		pp.inReplayQ = false
		if pp.acked {
			// Released by an ACK while queued; skip without occupying
			// the wire.
			i.recycleEntry(pp)
			i.scheduleTx()
			return
		}
		i.stats.TLPsTx++
		i.stats.ReplaysTx++
		if tr := i.tracer(); tr.On(trace.CatTLP) {
			tr.Emit(trace.CatTLP, uint64(eng.Now()), "pcie."+i.name,
				"replay", pp.TLP.ID, fmt.Sprintf("seq=%d", pp.Seq))
		}
		if eng.SpansOn() {
			i.spanObserve(&i.replaySeg, "replay-wait", pp.queuedAt, pp.TLP.ID)
		}
		i.transmitTLP(pp)
	case len(i.freshQ) > 0:
		pp := popFront(&i.freshQ)
		pp.inFreshQ = false
		if pp.acked {
			i.recycleEntry(pp)
			i.scheduleTx()
			return
		}
		i.stats.TLPsTx++
		if tr := i.tracer(); tr.On(trace.CatTLP) {
			tr.Emit(trace.CatTLP, uint64(eng.Now()), "pcie."+i.name,
				"tx", pp.TLP.ID, fmt.Sprintf("seq=%d", pp.Seq))
		}
		if eng.SpansOn() {
			i.spanObserve(&i.txqSeg, "txq-wait", pp.queuedAt, pp.TLP.ID)
		}
		i.transmitTLP(pp)
	}
	i.scheduleTx()
}

func (i *Interface) transmitTLP(pp *PciePkt) {
	pp.Corrupted = i.inj.CorruptTLP(i.eng.Now())
	i.transmit(pp)
	// "The replay timer is started for every packet transmitted on the
	// unidirectional link" — started, not restarted: while unacked TLPs
	// are outstanding the timer keeps running from its last reset (an
	// ACK or a previous timeout). This is load-bearing for the Fig 9
	// congestion behaviour: under refusals, every recovery round costs
	// a full timeout for at most one replay buffer's worth of TLPs.
	if !i.replayTmr.Scheduled() {
		i.eng.ScheduleEventAfter(i.replayTmr, i.link.ReplayTimeout(), sim.PriorityTimer)
	}
}

// transmit serializes pp onto the unidirectional link toward the peer.
func (i *Interface) transmit(pp *PciePkt) {
	eng := i.eng
	cfg := i.link.cfg
	txTime := WireTime(cfg.Gen, cfg.Width, pp.WireBytes(cfg.Overheads))
	i.busyUntil = eng.Now() + txTime
	if i.inj.Drop(eng.Now()) {
		// The packet occupied the wire but never arrives; the replay
		// timer (TLPs) or ACK timer (DLLPs) recovers.
		i.stats.Dropped++
		if tr := i.tracer(); tr.On(trace.CatFault) {
			var id uint64
			if pp.TLP != nil {
				id = pp.TLP.ID
			}
			tr.Emit(trace.CatFault, uint64(eng.Now()), "pcie."+i.name,
				"wire-drop", id, fmt.Sprintf("%v seq=%d", pp.Kind, pp.Seq))
		}
		return
	}
	arrive := i.busyUntil + cfg.PropDelay
	// Deliver a snapshot: the original may be re-corrupted by a later
	// retransmission while this copy is still in flight. The receiver
	// never retains it (it keeps only the wrapped TLP).
	if peer := i.peer; peer.eng != eng {
		// Split link: the two ends run in different timing domains, so
		// delivery is ferried through the coordinator's inbox and fires
		// at receiver-local time. The wire span is charged now, on the
		// sender's engine, with the known (now, arrive) endpoints — same
		// value the serial path records at delivery. The delivery runs
		// on the receiver's domain, which owns no list the snapshot may
		// return to, so it is left to the GC.
		cp := *pp
		if eng.SpansOn() && cp.Kind == KindTLP && cp.TLP != nil {
			i.spanObserveAt(&i.wireSeg, "wire", eng.Now(), arrive, cp.TLP.ID)
		}
		eng.CrossSchedule(peer.eng, i.deliverName, arrive, sim.PriorityDelivery, i.link.ord, func() {
			peer.receive(&cp)
		})
		return
	}
	f := i.getFlight()
	f.pp = *pp
	f.txStart = eng.Now()
	eng.ScheduleAtOrd(i.deliverName, arrive, sim.PriorityDelivery, i.link.ord, f.land)
}

// flight is one pcie-pkt on the wire toward the peer: the snapshot,
// its transmit tick (the begin mark of the wire attribution segment:
// serialization + propagation), and the delivery callback, bound once
// when the flight is created so that scheduling a delivery allocates
// nothing. A flight belongs to the sending interface and returns to its
// free list once delivered.
type flight struct {
	pp      PciePkt
	txStart sim.Tick
	from    *Interface
	land    func()
}

// getFlight pops a free flight, or allocates one.
func (i *Interface) getFlight() *flight {
	if n := len(i.flightFree); n > 0 {
		f := i.flightFree[n-1]
		i.flightFree[n-1] = nil
		i.flightFree = i.flightFree[:n-1]
		return f
	}
	f := &flight{from: i}
	f.land = f.deliver
	return f
}

// deliver hands the snapshot to the peer, then recycles the flight.
func (f *flight) deliver() {
	i := f.from
	if i.eng.SpansOn() && f.pp.Kind == KindTLP && f.pp.TLP != nil {
		i.spanObserve(&i.wireSeg, "wire", f.txStart, f.pp.TLP.ID)
	}
	i.peer.receive(&f.pp)
	f.pp = PciePkt{}
	i.flightFree = append(i.flightFree, f)
}

// newEntry pops a free replay-buffer entry, or allocates one.
func (i *Interface) newEntry() *PciePkt {
	if n := len(i.entryFree); n > 0 {
		pp := i.entryFree[n-1]
		i.entryFree[n-1] = nil
		i.entryFree = i.entryFree[:n-1]
		return pp
	}
	return &PciePkt{}
}

// recycleEntry returns a replay-buffer entry to the free list once an
// ACK has released it and no transmit queue still holds it; until
// then it is a no-op, and the last of releaseUpTo and the queue pops
// recycles the entry. The flush paths (dead link, hot-plug reset) drop
// their entries to the GC instead.
func (i *Interface) recycleEntry(pp *PciePkt) {
	if !pp.acked || pp.inFreshQ || pp.inReplayQ {
		return
	}
	*pp = PciePkt{}
	i.entryFree = append(i.entryFree, pp)
}

// popFront removes and returns the head of a queue in place, so the
// backing array is reused rather than crept along and regrown.
func popFront[T any](q *[]T) T {
	s := *q
	head := s[0]
	copy(s, s[1:])
	var zero T
	s[len(s)-1] = zero
	*q = s[:len(s)-1]
	return head
}

// pause freezes the interface for a link-down window: every DLL timer
// stops, and nothing is transmitted until resume.
func (i *Interface) pause() {
	eng := i.eng
	eng.Deschedule(i.txEv)
	eng.Deschedule(i.replayTmr)
	eng.Deschedule(i.ackTmr)
	i.ackArmed = false
	if i.fc != nil {
		i.fc.pause()
	}
}

// resume restarts the interface after retraining: every unacknowledged
// TLP is replayed, the cumulative ACK (possibly lost in the window) is
// resent, and throttled local senders are woken.
func (i *Interface) resume() {
	i.busyUntil = 0
	i.consecTimeouts = 0
	if len(i.replayBuf) > 0 {
		i.startReplay()
		if !i.replayTmr.Scheduled() {
			i.eng.ScheduleEventAfter(i.replayTmr, i.link.ReplayTimeout(), sim.PriorityTimer)
		}
	}
	if i.lastDelivered > 0 {
		i.ackPend = true
	}
	if i.fc != nil {
		i.fc.resume()
	}
	i.scheduleTx()
	i.notifyLocalRetry()
}

// --- RX logic --------------------------------------------------------

func (i *Interface) receive(pp *PciePkt) {
	if i.link.state != linkUp {
		// In flight when the link dropped: lost.
		i.stats.DownDrops++
		return
	}
	switch pp.Kind {
	case KindAck, KindNak:
		if pp.Corrupted {
			// DLLP CRC failure: drop silently. The sender's ACK timer
			// (for ACKs) or replay timer (for NAKs) regenerates it.
			i.stats.BadDLLPs++
			i.aer.ReportCorrectable(pci.AERCorrBadDLLP)
			i.link.noteLinkError()
			if tr := i.tracer(); tr.On(trace.CatFault) {
				tr.Emit(trace.CatFault, uint64(i.eng.Now()), "pcie."+i.name,
					"bad-dllp", 0, fmt.Sprintf("%v seq=%d", pp.Kind, pp.Seq))
			}
			return
		}
		i.consecTimeouts = 0
		if tr := i.tracer(); tr.On(trace.CatDLLP) {
			tr.Emit(trace.CatDLLP, uint64(i.eng.Now()), "pcie."+i.name,
				"dllp-rx", 0, fmt.Sprintf("%v seq=%d", pp.Kind, pp.Seq))
		}
		if pp.Kind == KindAck {
			i.stats.AcksRx++
			i.processAck(pp.Seq)
		} else {
			i.stats.NaksRx++
			i.processNak(pp.Seq)
		}
	case KindInitFC1, KindInitFC2, KindUpdateFC:
		if i.fc == nil {
			return // not in FC mode; cannot happen between matched ends
		}
		if pp.Corrupted {
			i.stats.BadDLLPs++
			i.aer.ReportCorrectable(pci.AERCorrBadDLLP)
			i.link.noteLinkError()
			if tr := i.tracer(); tr.On(trace.CatFault) {
				tr.Emit(trace.CatFault, uint64(i.eng.Now()), "pcie."+i.name,
					"bad-dllp", 0, fmt.Sprintf("%v %v", pp.Kind, pp.FCCl))
			}
			return
		}
		i.consecTimeouts = 0
		i.fc.recvFC(pp)
	case KindTLP:
		i.receiveTLP(pp)
	}
}

func (i *Interface) receiveTLP(pp *PciePkt) {
	if pp.Corrupted {
		// CRC check failed: discard and NAK the last good sequence.
		i.stats.CRCErrors++
		i.aer.ReportCorrectable(pci.AERCorrReceiverError | pci.AERCorrBadTLP)
		i.link.noteLinkError()
		if tr := i.tracer(); tr.On(trace.CatFault) {
			tr.Emit(trace.CatFault, uint64(i.eng.Now()), "pcie."+i.name,
				"crc-error", pp.TLP.ID, fmt.Sprintf("seq=%d nak=%d", pp.Seq, i.recvSeq-1))
		}
		i.nakPend = true
		i.nakSeq = i.recvSeq - 1
		i.scheduleTx()
		return
	}
	if pp.Seq != i.recvSeq {
		// Stale duplicate (from a replay racing an ACK) or a gap after
		// a refused delivery: discard, the sender's timer sorts it out.
		i.stats.Discarded++
		if i.link.planActive && pp.Seq < i.recvSeq && !i.ackArmed {
			// Under fault injection a stale duplicate can also mean our
			// cumulative ACK was corrupted or dropped; re-ACK so the
			// sender can release its replay buffer.
			i.ackArmed = true
			i.eng.ScheduleEventAfter(i.ackTmr, i.link.AckPeriod(), sim.PriorityTimer)
		}
		return
	}
	if i.fc != nil {
		// Credit-based flow control: the sender could only transmit
		// because this side had advertised room, so the DLL always
		// accepts an in-sequence TLP — seq advances, the cumulative
		// ACK covers it — and the transaction layer queues it until
		// the local component takes it (releasing its credits).
		// Refusal/retry survives only at that mem-port boundary.
		i.lastDelivered = pp.Seq
		i.recvSeq++
		if !i.ackArmed {
			i.ackArmed = true
			i.eng.ScheduleEventAfter(i.ackTmr, i.link.AckPeriod(), sim.PriorityTimer)
		}
		i.fc.rxAccept(pp.TLP)
		return
	}
	if !i.deliver(pp.TLP) {
		// "If the connected master or slave ports refuse to accept the
		// TLP, the receiving interface does not increment the receiving
		// sequence number and the sender retransmits the packets in its
		// replay buffer after a timeout."
		i.stats.DeliveryRefuse++
		if tr := i.tracer(); tr.On(trace.CatTLP) {
			tr.Emit(trace.CatTLP, uint64(i.eng.Now()), "pcie."+i.name,
				"refuse", pp.TLP.ID, fmt.Sprintf("seq=%d", pp.Seq))
		}
		return
	}
	i.stats.TLPsDelivered++
	if tr := i.tracer(); tr.On(trace.CatTLP) {
		tr.Emit(trace.CatTLP, uint64(i.eng.Now()), "pcie."+i.name,
			"deliver", pp.TLP.ID, fmt.Sprintf("seq=%d", pp.Seq))
	}
	i.lastDelivered = pp.Seq
	i.recvSeq++
	if !i.ackArmed {
		i.ackArmed = true
		i.eng.ScheduleEventAfter(i.ackTmr, i.link.AckPeriod(), sim.PriorityTimer)
	}
}

// deliver hands an inbound TLP to the local component through the port
// matching its direction.
func (i *Interface) deliver(tlp *mem.Packet) bool {
	if tlp.Cmd.IsRequest() {
		return i.master.SendTimingReq(tlp)
	}
	return i.slave.SendTimingResp(tlp)
}

// ackTimerFire sends one cumulative ACK for everything delivered since
// the last one: "to reduce the link traffic, the receiver sends back a
// single ACK/NAK to the sender for several processed TLPs" (§V-C).
func (i *Interface) ackTimerFire() {
	i.ackArmed = false
	i.ackPend = true
	i.scheduleTx()
}

// processAck releases replay-buffer entries: "it removes all the TLPs
// with a sequence number smaller or equal to the ACK sequence number
// from the replay buffer. The replay timer is restarted if any TLP
// remains" (§V-C).
func (i *Interface) processAck(seq uint64) {
	released := i.releaseUpTo(seq)
	i.eng.Deschedule(i.replayTmr)
	if len(i.replayBuf) > 0 {
		i.eng.ScheduleEventAfter(i.replayTmr, i.link.ReplayTimeout(), sim.PriorityTimer)
	}
	if released {
		i.notifyLocalRetry()
	}
}

// processNak releases acknowledged TLPs and immediately replays the
// rest in sequence order.
func (i *Interface) processNak(seq uint64) {
	released := i.releaseUpTo(seq)
	i.startReplay()
	if released {
		i.notifyLocalRetry()
	}
}

func (i *Interface) releaseUpTo(seq uint64) bool {
	released := false
	now := i.eng.Now()
	keep := i.replayBuf[:0]
	for _, pp := range i.replayBuf {
		if pp.Seq <= seq {
			pp.acked = true
			released = true
			i.ackLat.Observe(uint64(now - pp.acceptedAt))
			i.recycleEntry(pp)
		} else {
			keep = append(keep, pp)
		}
	}
	i.replayBuf = keep
	i.bufGauge.Set(int64(len(i.replayBuf)))
	return released
}

// notifyLocalRetry wakes local senders that were throttled by a full
// replay buffer.
func (i *Interface) notifyLocalRetry() {
	eng := i.eng
	if i.reqRetryPending {
		i.reqRetryPending = false
		eng.ScheduleAt(i.reqretryName, eng.Now(), sim.PriorityRetry, i.reqretryFn)
	}
	if i.respRetryPending {
		i.respRetryPending = false
		eng.ScheduleAt(i.resretryName, eng.Now(), sim.PriorityRetry, i.resretryFn)
	}
}

// replayTimeout retransmits the entire replay buffer in order, then
// restarts the timer (§V-C). Each expiration is a correctable error in
// AER terms; enough of them in a row with no ACK/NAK at all means the
// partner is gone and the link is declared surprise-down.
func (i *Interface) replayTimeout() {
	if len(i.replayBuf) == 0 {
		return
	}
	i.stats.Timeouts++
	i.aer.ReportCorrectable(pci.AERCorrReplayTimeout)
	if tr := i.tracer(); tr.On(trace.CatFault) {
		tr.Emit(trace.CatFault, uint64(i.eng.Now()), "pcie."+i.name,
			"replay-timeout", 0, fmt.Sprintf("unacked=%d", len(i.replayBuf)))
	}
	i.link.noteLinkError()
	if i.link.state != linkUp {
		// The timeout tipped the degradation window: the link is
		// retraining and resume will restart the replay machinery.
		return
	}
	if th := i.link.deadThreshold(); th > 0 {
		i.consecTimeouts++
		if i.consecTimeouts >= th {
			i.link.markDead()
			return
		}
	}
	i.startReplay()
	i.eng.ScheduleEventAfter(i.replayTmr, i.link.ReplayTimeout(), sim.PriorityTimer)
}

func (i *Interface) startReplay() {
	// The new replay queue supersedes the old one: entries it still
	// held leave it here, and the acked ones among them are recycled.
	for _, pp := range i.replayQ {
		pp.inReplayQ = false
		i.recycleEntry(pp)
	}
	i.replayQ = append(i.replayQ[:0], i.replayBuf...)
	now := i.eng.Now()
	for _, pp := range i.replayQ {
		pp.inReplayQ = true
		pp.replayed = true
		pp.queuedAt = now
	}
	i.scheduleTx()
}
