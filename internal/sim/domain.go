package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Conservative parallel execution (DESIGN.md §15).
//
// A parallel simulation is a set of Engines — timing domains — driven
// in lockstep by a Coordinator. Each domain owns its clock, queue and
// free lists exactly as in the serial configuration; the Coordinator
// advances all domains through barrier-synchronized windows of at most
// one quantum of simulated time. The quantum is the minimum latency of
// any cross-domain interaction (for PCIe fabrics: wire time of the
// smallest DLLP plus the link's PropDelay, and the interrupt delivery
// latency), so an event executed inside a window can never create an
// event that lands inside the same window on another domain — the
// classic conservative-lookahead argument.
//
// Cross-domain scheduling goes through CrossSchedule, which appends to
// the receiving domain's inbox. Inboxes are drained between windows,
// single-threaded, in a canonical order — (when, prio, sched, ord,
// sending domain, per-sender index) — so the receiver assigns heap
// sequence numbers deterministically regardless of how the host
// interleaved the window's goroutines. Ferried events keep the
// sender's scheduling tick (sched) and static scheduler key (ord), and
// the heap orders by (when, prio, sched, ord, seq), so cross-domain
// events sort against local ones exactly as the serial single-queue
// heap sorts them: distinct causes order by cause time, and the
// lockstep-symmetric collisions where even cause time ties resolve by
// the same static ord on both sides of the comparison (see the
// eventHeap comment in event.go for the full argument).
type Coordinator struct {
	quantum Tick
	engines []*Engine

	running bool

	// winEndIncl is the inclusive end of the window in flight. It is
	// written only between windows (all workers parked), so concurrent
	// reads from CrossSchedule's lookahead check race with nothing.
	winEndIncl Tick

	workers []*worker
}

// worker drives one non-root domain for the duration of a run call.
type worker struct {
	cmd  chan workerCmd
	done chan uint64
}

type workerCmd struct {
	endIncl Tick
	cut     *windowCut // non-nil: exact stop point discovered by the root
}

// windowCut is the ordering key of the root event after which a
// RunWhile condition flipped. Worker domains fire only events that the
// serial heap would have ordered before it.
type windowCut struct {
	when  Tick
	prio  Priority
	sched Tick
	ord   uint64
}

// crossMsg is one event ferried across a domain boundary. The ordering
// fields are exactly the receiver-heap key the event will carry —
// (when, prio, sched, ord) — plus (fromDom, fromIdx) so the drain
// assigns sequence numbers deterministically regardless of goroutine
// interleaving. fromIdx preserves each sender domain's own send order,
// which for equal-key messages from the same domain is the serial
// firing order of their causes.
type crossMsg struct {
	name    string
	when    Tick
	prio    Priority
	sched   Tick   // sender's clock at CrossSchedule time
	ord     uint64 // sender's static scheduler key (see CrossSchedule)
	fromDom int
	fromIdx uint64 // per-sender counter; canonical drain tie-break
	fn      func()
}

// domainState is the per-engine half of the parallel machinery.
type domainState struct {
	coord   *Coordinator
	id      int
	sendIdx uint64

	mu      sync.Mutex
	inbox   []crossMsg
	scratch []crossMsg // drained buffer recycled back into inbox
	sorter  msgSorter  // reusable sort.Interface; draining is per-window hot
}

// msgSorter orders drained cross messages by the canonical key —
// (when, prio, sched, ord, fromDom, fromIdx). It is a reusable
// sort.Interface held by the domain so the per-window drain does not
// allocate a closure and swapper the way sort.Slice would.
type msgSorter struct{ s []crossMsg }

func (m *msgSorter) Len() int      { return len(m.s) }
func (m *msgSorter) Swap(a, b int) { m.s[a], m.s[b] = m.s[b], m.s[a] }
func (m *msgSorter) Less(a, b int) bool {
	x, y := &m.s[a], &m.s[b]
	if x.when != y.when {
		return x.when < y.when
	}
	if x.prio != y.prio {
		return x.prio < y.prio
	}
	if x.sched != y.sched {
		return x.sched < y.sched
	}
	if x.ord != y.ord {
		return x.ord < y.ord
	}
	if x.fromDom != y.fromDom {
		return x.fromDom < y.fromDom
	}
	return x.fromIdx < y.fromIdx
}

func (d *domainState) requireRoot(op string) {
	if d.id != 0 {
		panic(fmt.Sprintf("sim: %s on non-root timing domain %d (only the coordinator drives it)", op, d.id))
	}
}

// NewCoordinator binds the engines into one parallel simulation.
// engines[0] is the root domain: it keeps the public Run API, hosts
// the merged observability, and is the only domain outside code may
// drive. quantum is the conservative lookahead in ticks; every
// CrossSchedule must target a time more than one window away, which
// the coordinator enforces at send time.
func NewCoordinator(quantum Tick, engines ...*Engine) *Coordinator {
	if quantum == 0 {
		panic("sim: NewCoordinator with zero quantum")
	}
	if len(engines) < 2 {
		panic("sim: NewCoordinator needs at least two domains")
	}
	c := &Coordinator{quantum: quantum, engines: engines}
	for i, e := range engines {
		if e.dom != nil {
			panic("sim: engine already belongs to a coordinator")
		}
		e.dom = &domainState{coord: c, id: i}
	}
	return c
}

// Quantum returns the conservative lookahead in ticks.
func (c *Coordinator) Quantum() Tick { return c.quantum }

// Engines returns the timing domains, root first.
func (c *Coordinator) Engines() []*Engine { return c.engines }

// CrossSchedule queues fn on the receiving domain to at absolute time
// when. It must be called from e's own domain (inside one of its event
// callbacks) and when must lie beyond the current window — violating
// the lookahead is a programming error in the partitioning, not a
// runtime condition, so it panics. The event is delivered through the
// receiver's inbox at the next barrier with the sender's clock as its
// sched stamp, keeping cross-domain ordering identical to serial.
//
// ord is the sender's static scheduler-identity key and must match the
// key the sender uses for the same event in the serial configuration
// (links: ScheduleAtOrd with the link's build order; interrupt
// dispatch: the IRQ line key) — the heap then resolves full (when,
// prio, sched) collisions between different senders by ord on both the
// serial and parallel paths, which is what keeps lockstep-symmetric
// endpoints byte-identical across engine configurations.
func (e *Engine) CrossSchedule(to *Engine, name string, when Tick, prio Priority, ord uint64, fn func()) {
	d := e.dom
	if d == nil || to.dom == nil || to.dom.coord != d.coord {
		panic(fmt.Sprintf("sim: CrossSchedule %q between engines that do not share a coordinator", name))
	}
	if fn == nil {
		panic("sim: CrossSchedule with nil callback")
	}
	c := d.coord
	if when <= c.winEndIncl {
		panic(fmt.Sprintf("sim: CrossSchedule %q at %s violates the lookahead (window ends %s); the quantum is too large for this link",
			name, when, c.winEndIncl))
	}
	d.sendIdx++
	m := crossMsg{name: name, when: when, prio: prio, sched: e.now,
		ord: ord, fromDom: d.id, fromIdx: d.sendIdx, fn: fn}
	td := to.dom
	td.mu.Lock()
	td.inbox = append(td.inbox, m)
	td.mu.Unlock()
}

// DomainEngines returns every timing domain (root first) when e is the
// root of a parallel simulation, or nil for serial engines and
// non-root domains. Observability callers use it to arm per-domain
// tracers and profilers.
func (e *Engine) DomainEngines() []*Engine {
	if e.dom == nil || e.dom.id != 0 {
		return nil
	}
	return e.dom.coord.engines
}

// TotalFired returns the number of events the whole simulation has
// fired: the sum over all timing domains when e is a parallel root,
// the engine's own count otherwise. Fired stays per-domain — the
// stats registry merges those — but human-facing run summaries want
// the whole-simulation number.
func (e *Engine) TotalFired() uint64 {
	doms := e.DomainEngines()
	if doms == nil {
		return e.Fired()
	}
	var total uint64
	for _, d := range doms {
		total += d.Fired()
	}
	return total
}

// SeedPacketIDs re-bases the engine's packet-ID sequence. The topology
// builder gives each domain a disjoint base so trace packet IDs stay
// unique across domains; IDs appear only in traces, never in stats.
func (e *Engine) SeedPacketIDs(base uint64) { e.lastPacketID = base }

// --- run loops -------------------------------------------------------

// runUntil advances all domains through quantum windows until every
// queue has drained or passed limit. All domains execute each window
// concurrently; the lookahead guarantees no intra-window causality.
func (c *Coordinator) runUntil(limit Tick) uint64 {
	c.begin()
	defer c.end()

	var total uint64
	for {
		c.drainInboxes()
		if c.anyStopped() {
			return total
		}
		t, ok := c.nextEventTime()
		if !ok {
			// Globally drained: settle the clocks the way the serial
			// loop would have left its single clock.
			if limit != MaxTick {
				c.settleClocks(limit)
			} else {
				c.settleClocks(c.maxNow())
			}
			return total
		}
		if t > limit {
			c.settleClocks(limit)
			return total
		}
		endIncl := c.windowEnd(t, limit)
		c.winEndIncl = endIncl
		for _, w := range c.workers {
			w.cmd <- workerCmd{endIncl: endIncl}
		}
		total += c.engines[0].runWindow(endIncl, nil)
		for _, w := range c.workers {
			total += <-w.done
		}
	}
}

// runWhile advances windows for as long as cond (which may only read
// root-domain state) returns true. The root runs each window first:
// when cond flips after a root event, that event's ordering key is the
// exact cutoff handed to the other domains, so the world stops at the
// same point the serial loop would have stopped at.
func (c *Coordinator) runWhile(cond func() bool) uint64 {
	c.begin()
	defer c.end()

	var total uint64
	for {
		c.drainInboxes()
		if c.anyStopped() || !cond() {
			return total
		}
		t, ok := c.nextEventTime()
		if !ok {
			// RunWhile never fast-forwards, but a fully drained
			// parallel run must still leave one coherent clock.
			c.settleClocks(c.maxNow())
			return total
		}
		endIncl := c.windowEnd(t, MaxTick)
		c.winEndIncl = endIncl
		fired, cut, stopWindow := c.engines[0].runWindowWhile(endIncl, cond)
		total += fired
		var cmd workerCmd
		cmd.endIncl = endIncl
		if stopWindow {
			if cut == nil {
				// Defensive: the root stopped without firing anything
				// this window, so nothing elsewhere may fire either.
				cut = &windowCut{when: 0, prio: Priority(math.MinInt32)}
			}
			cmd.cut = cut
		}
		for _, w := range c.workers {
			w.cmd <- cmd
		}
		for _, w := range c.workers {
			total += <-w.done
		}
		if stopWindow {
			return total
		}
	}
}

// windowEnd computes the inclusive window end for a window starting at
// t, clamped to limit, with overflow protection.
func (c *Coordinator) windowEnd(t, limit Tick) Tick {
	endIncl := t + c.quantum - 1
	if endIncl < t { // wrapped
		endIncl = MaxTick
	}
	if endIncl > limit {
		endIncl = limit
	}
	return endIncl
}

// drainInboxes moves ferried events into their receivers' heaps in the
// canonical deterministic order. It runs single-threaded between
// windows; the barrier provides the happens-before edge from every
// sender's appends.
func (c *Coordinator) drainInboxes() {
	for _, e := range c.engines {
		d := e.dom
		d.mu.Lock()
		msgs := d.inbox
		d.inbox = d.scratch[:0]
		d.mu.Unlock()
		if len(msgs) == 0 {
			d.scratch = msgs
			continue
		}
		d.sorter.s = msgs
		sort.Sort(&d.sorter)
		d.sorter.s = nil
		for i := range msgs {
			m := &msgs[i]
			ev := e.getOneShot(m.name, m.fn)
			e.insert(ev, m.when, m.prio, m.sched, m.ord)
			msgs[i] = crossMsg{}
		}
		d.scratch = msgs
	}
}

// nextEventTime returns the earliest queued event time across all
// domains; ok is false when every queue is empty.
func (c *Coordinator) nextEventTime() (t Tick, ok bool) {
	t = MaxTick
	for _, e := range c.engines {
		if e.queue.len() == 0 {
			continue
		}
		ok = true
		if w := e.queue.items[0].when; w < t {
			t = w
		}
	}
	return t, ok
}

func (c *Coordinator) anyStopped() bool {
	for _, e := range c.engines {
		if e.stopped {
			return true
		}
	}
	return false
}

func (c *Coordinator) maxNow() Tick {
	var t Tick
	for _, e := range c.engines {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// settleClocks advances every domain clock that lags t up to t.
func (c *Coordinator) settleClocks(t Tick) {
	for _, e := range c.engines {
		if e.now < t {
			e.now = t
		}
	}
}

// begin installs the per-run worker goroutines, one per non-root
// domain; end retires them. Workers live for one run call (a run
// executes up to millions of windows, so the channel round-trip per
// window is what matters, not the 3 goroutine spawns per run).
func (c *Coordinator) begin() {
	if c.running {
		panic("sim: reentrant Run")
	}
	c.running = true
	for _, e := range c.engines {
		e.stopped = false
	}
	c.workers = make([]*worker, len(c.engines)-1)
	for i := range c.workers {
		w := &worker{cmd: make(chan workerCmd), done: make(chan uint64)}
		c.workers[i] = w
		eng := c.engines[i+1]
		go func() {
			for cmd := range w.cmd {
				w.done <- eng.runWindow(cmd.endIncl, cmd.cut)
			}
		}()
	}
}

func (c *Coordinator) end() {
	for _, w := range c.workers {
		close(w.cmd)
	}
	c.workers = nil
	c.running = false
}

// --- per-domain window execution -------------------------------------

// runWindow executes the domain's events with timestamps inside the
// window, never advancing the clock past the last fired event. cut,
// when non-nil, is the serial-order stopping key: only events strictly
// before it fire (exact-tie events stay queued).
func (e *Engine) runWindow(endIncl Tick, cut *windowCut) uint64 {
	e.running = true
	defer func() { e.running = false }()

	start := e.fired
	for e.queue.len() > 0 && !e.stopped {
		next := e.queue.items[0]
		if next.when > endIncl {
			break
		}
		if cut != nil && !beforeCut(next, cut) {
			break
		}
		e.fire()
	}
	return e.fired - start
}

// runWindowWhile is the root domain's window under RunWhile: cond is
// checked before every pop, exactly like the serial loop. When cond
// flips (or Stop is called), the returned cut is the ordering key of
// the last event fired, and stopWindow tells the coordinator to cut
// the other domains at it and return.
func (e *Engine) runWindowWhile(endIncl Tick, cond func() bool) (fired uint64, cut *windowCut, stopWindow bool) {
	e.running = true
	defer func() { e.running = false }()

	start := e.fired
	var last windowCut
	var any bool
	for e.queue.len() > 0 && !e.stopped {
		if !cond() {
			break
		}
		next := e.queue.items[0]
		if next.when > endIncl {
			break
		}
		last = windowCut{when: next.when, prio: next.prio, sched: next.sched, ord: next.ord}
		any = true
		e.fire()
	}
	fired = e.fired - start
	if e.stopped || !cond() {
		stopWindow = true
		if any {
			// Copy before taking the address: &last directly would make
			// last escape and cost one allocation on every window, not
			// just the stopping one.
			stop := last
			cut = &stop
		}
	}
	return fired, cut, stopWindow
}

// beforeCut reports whether ev would have fired before the cut event
// in the serial order. Exact (when, prio, sched, ord) ties report
// false — the event stays queued, the residual ambiguity the package
// comment documents.
func beforeCut(ev *Event, cut *windowCut) bool {
	if ev.when != cut.when {
		return ev.when < cut.when
	}
	if ev.prio != cut.prio {
		return ev.prio < cut.prio
	}
	if ev.sched != cut.sched {
		return ev.sched < cut.sched
	}
	return ev.ord < cut.ord
}
