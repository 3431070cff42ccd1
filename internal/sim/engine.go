package sim

import (
	"fmt"

	"pciesim/internal/stats"
	"pciesim/internal/trace"
)

// Engine is the simulation kernel: a clock and an event queue. All
// simulated components share one Engine; its queue defines the global
// order of everything that happens.
//
// Engine is not safe for concurrent use. The whole simulator is
// single-threaded by design — determinism is a feature the validation
// experiments rely on.
type Engine struct {
	now     Tick
	queue   eventHeap
	nextSeq uint64
	fired   uint64
	running bool
	stopped bool

	// dom is non-nil when the engine is one timing domain of a
	// Coordinator-driven parallel simulation (see domain.go). It stays
	// nil in the classic serial configuration, whose behavior is
	// byte-for-byte unchanged.
	dom *domainState

	// freeEvents is the free list of recycled one-shot events (see
	// Schedule): the Engine.Schedule hot path is allocation-free in
	// steady state. freeLen/recycled are accounting for tests.
	freeEvents *Event
	recycled   uint64

	// Observability (see observe.go, prof.go). stats is created
	// lazily; tracer may stay nil (trace methods are nil-safe). The
	// sampler fields drive periodic stats snapshots from the run
	// loops. prof is the opt-in self-profiler; spansOn arms causal
	// span attribution (segment histograms + begin/end trace spans).
	stats        *stats.Registry
	tracer       *trace.Tracer
	prof         *Profiler
	spansOn      bool
	lastPacketID uint64
	sampleEvery  Tick
	nextSample   Tick
}

// NewEngine returns an engine at tick zero with an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Tick { return e.now }

// Fired returns the number of events executed so far; it is the
// simulator's cost metric (events/second of host time).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.queue.len() }

// NewEvent creates an unscheduled event with a diagnostic name. The
// returned event can be scheduled, descheduled, and rescheduled freely.
func (e *Engine) NewEvent(name string, fn func()) *Event {
	if fn == nil {
		panic("sim: NewEvent with nil callback")
	}
	return &Event{name: name, fn: fn, idx: -1}
}

// ScheduleEvent queues ev at absolute time when with the given priority.
// Scheduling into the past or an already-scheduled event is a programming
// error and panics: silent reordering would corrupt every timing model.
func (e *Engine) ScheduleEvent(ev *Event, when Tick, prio Priority) {
	if ev.Scheduled() {
		panic(fmt.Sprintf("sim: event %q is already scheduled for %s", ev.name, ev.when))
	}
	if when < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled for %s, before now (%s)", ev.name, when, e.now))
	}
	if e.prof != nil && e.running && when == e.now {
		e.prof.noteSameTick(ev.name)
	}
	e.insert(ev, when, prio, e.now, 0)
}

// insert queues ev with an explicit scheduling tick and ordering key.
// ScheduleEvent stamps e.now and ord 0; the coordinator's inbox drain
// preserves the sender domain's clock and the sender's static ord
// instead, so cross-domain events sort against local ones exactly as
// the serial heap would have sorted them.
func (e *Engine) insert(ev *Event, when Tick, prio Priority, sched Tick, ord uint64) {
	ev.when = when
	ev.prio = prio
	ev.sched = sched
	ev.ord = ord
	ev.seq = e.nextSeq
	e.nextSeq++
	e.queue.push(ev)
}

// ScheduleEventAfter queues ev delay ticks from now.
func (e *Engine) ScheduleEventAfter(ev *Event, delay Tick, prio Priority) {
	e.ScheduleEvent(ev, e.now+delay, prio)
}

// Deschedule removes ev from the queue if it is queued. It is safe to
// call on an unscheduled event.
func (e *Engine) Deschedule(ev *Event) {
	if ev.Scheduled() {
		e.queue.remove(ev)
	}
}

// Reschedule moves ev to the new absolute time, whether or not it is
// currently queued.
func (e *Engine) Reschedule(ev *Event, when Tick, prio Priority) {
	e.Deschedule(ev)
	e.ScheduleEvent(ev, when, prio)
}

// Schedule is the fire-and-forget form: it takes a one-shot event from
// the engine's free list (or allocates one) that runs fn at now+delay.
// The returned handle is valid for descheduling only until the event
// fires; after that the event is recycled and the handle must be
// dropped (the kernel's wait-timeout pattern, which nils its handle
// inside the callback, is the intended use).
func (e *Engine) Schedule(name string, delay Tick, fn func()) *Event {
	ev := e.getOneShot(name, fn)
	e.ScheduleEventAfter(ev, delay, PriorityDefault)
	return ev
}

// ScheduleAt is Schedule with an absolute time and explicit priority.
func (e *Engine) ScheduleAt(name string, when Tick, prio Priority, fn func()) *Event {
	ev := e.getOneShot(name, fn)
	e.ScheduleEvent(ev, when, prio)
	return ev
}

// ScheduleAtOrd is ScheduleAt with an explicit scheduler-identity key.
// Schedulers that can collide with a *different* scheduler on the full
// (when, prio, sched) triple — wire deliveries from parallel links,
// interrupt dispatch — pass a static non-zero key (their build order)
// so the tie resolves identically in the serial heap and in the
// parallel coordinator's inbox drain. See the eventHeap comment.
func (e *Engine) ScheduleAtOrd(name string, when Tick, prio Priority, ord uint64, fn func()) *Event {
	ev := e.getOneShot(name, fn)
	if when < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled for %s, before now (%s)", ev.name, when, e.now))
	}
	if e.prof != nil && e.running && when == e.now {
		e.prof.noteSameTick(ev.name)
	}
	e.insert(ev, when, prio, e.now, ord)
	return ev
}

// getOneShot pops a recycled event or allocates a fresh one.
func (e *Engine) getOneShot(name string, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	if ev := e.freeEvents; ev != nil {
		e.freeEvents = ev.nextFree
		ev.nextFree = nil
		ev.name = name
		ev.fn = fn
		return ev
	}
	return &Event{name: name, fn: fn, idx: -1, oneShot: true}
}

// recycle returns a fired one-shot event to the free list. Called only
// from the run loops, after the callback returned without rescheduling
// the event.
func (e *Engine) recycle(ev *Event) {
	ev.name = ""
	ev.fn = nil
	ev.nextFree = e.freeEvents
	e.freeEvents = ev
	e.recycled++
}

// Recycled returns how many one-shot events have been returned to the
// free list — the event pool's effectiveness metric.
func (e *Engine) Recycled() uint64 { return e.recycled }

// Stop makes the current Run call return after the executing event
// completes. Queued events are left in place so the run can be resumed.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains or Stop is called. It
// returns the number of events fired by this call.
func (e *Engine) Run() uint64 { return e.RunUntil(MaxTick) }

// RunUntil executes events with timestamps <= limit, then sets the clock
// to limit if the queue drained early (or to the next event time's floor
// otherwise). It returns the number of events fired by this call.
//
// On the root engine of a parallel simulation the call advances every
// timing domain through the Coordinator; on any other domain it panics
// (only the coordinator may drive a non-root domain).
func (e *Engine) RunUntil(limit Tick) uint64 {
	if e.dom != nil {
		e.dom.requireRoot("RunUntil")
		return e.dom.coord.runUntil(limit)
	}
	if e.running {
		panic("sim: reentrant Run")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	start := e.fired
	for e.queue.len() > 0 && !e.stopped {
		if e.queue.items[0].when > limit {
			e.now = limit
			if e.sampleEvery > 0 {
				e.sampleUpTo()
			}
			return e.fired - start
		}
		e.fire()
	}
	if e.queue.len() == 0 && limit != MaxTick && e.now < limit {
		e.now = limit
		if e.sampleEvery > 0 {
			e.sampleUpTo()
		}
	}
	return e.fired - start
}

// RunWhile executes events in order for as long as cond returns true,
// stopping when it turns false, the queue drains, or Stop is called.
// cond is evaluated before each event, so it typically tests a
// completion flag flipped inside an event callback. Events scheduled
// past the stopping point stay queued — unlike Run, RunWhile does not
// fast-forward the clock through idle time, which matters when a
// fault-injection window is armed at a future tick. It returns the
// number of events fired by this call.
func (e *Engine) RunWhile(cond func() bool) uint64 {
	if e.dom != nil {
		e.dom.requireRoot("RunWhile")
		return e.dom.coord.runWhile(cond)
	}
	if e.running {
		panic("sim: reentrant Run")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	start := e.fired
	for e.queue.len() > 0 && !e.stopped && cond() {
		e.fire()
	}
	return e.fired - start
}

// fire executes the head event: it pops it, advances the clock to it,
// takes the sampler snapshots now due, runs the callback (through the
// profiler when armed), and recycles a one-shot the callback did not
// reschedule. Every run loop, serial or windowed, fires through it.
func (e *Engine) fire() {
	ev := e.queue.pop()
	e.now = ev.when
	if e.sampleEvery > 0 {
		e.sampleUpTo()
	}
	e.fired++
	if e.prof != nil {
		e.fireProfiled(ev)
	} else {
		ev.fn()
	}
	if ev.oneShot && ev.idx < 0 {
		e.recycle(ev)
	}
}

// Drained reports whether no events remain.
func (e *Engine) Drained() bool { return e.queue.len() == 0 }
