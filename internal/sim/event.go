package sim

// Priority orders events that are scheduled for the same tick. Lower
// values run first, matching gem5's convention. The pre-defined bands
// keep unrelated models from racing at tick boundaries: e.g. DLLP ACK
// processing must observe a consistent replay-buffer state before new
// TLP transmissions at the same tick are attempted.
type Priority int

// Priority bands, lowest (earliest) first.
const (
	PriorityTimer    Priority = -20 // expiring protocol timers
	PriorityDelivery Priority = -10 // packet deliveries across links/ports
	PriorityDefault  Priority = 0
	PriorityRetry    Priority = 10 // retry notifications after refusals
	PriorityStats    Priority = 50 // end-of-interval statistics sampling
)

// Event is a scheduled callback. Events are created by Engine.Schedule
// and friends; the zero value is not useful. An Event may be descheduled
// before it fires and rescheduled afterwards, mirroring the gem5 event
// lifecycle that the PCIe replay/ACK timers depend on.
//
// Events created by the fire-and-forget Schedule/ScheduleAt forms are
// recycled through the engine's free list after they fire: their handle
// must not be retained past the callback's execution (descheduling one
// before it fires remains safe). Long-lived, repeatedly rescheduled
// events come from NewEvent and are never recycled.
type Event struct {
	name string
	fn   func()

	when  Tick
	prio  Priority
	sched Tick   // clock value when the event was scheduled
	ord   uint64 // static scheduler-identity key; breaks (when, prio, sched) ties
	seq   uint64 // insertion order; breaks remaining ties deterministically
	idx   int    // heap index, -1 when not queued

	// oneShot marks a Schedule/ScheduleAt event eligible for recycling
	// after it fires; nextFree links the engine's free list.
	oneShot  bool
	nextFree *Event
}

// Name returns the diagnostic name given at creation time.
func (e *Event) Name() string { return e.name }

// Scheduled reports whether the event currently sits in an engine queue.
func (e *Event) Scheduled() bool { return e != nil && e.idx >= 0 }

// When returns the tick the event is scheduled for. It is only
// meaningful while Scheduled() is true.
func (e *Event) When() Tick { return e.when }

// eventHeap is a binary min-heap ordered by (when, prio, sched, ord,
// seq). It is implemented directly rather than via container/heap to
// avoid the interface boxing on this extremely hot path.
//
// Within one engine the clock is monotonic, so sched never contradicts
// seq. It is still not redundant there: sched sorts before ord, so two
// events scheduled on different ticks fire in scheduling order whatever
// their ord keys, and ord only splits events scheduled on the same
// tick. Dropping sched from the comparator reorders such events and
// moves the figure goldens. Both terms were added for the multi-domain
// engine. Events ferried across a domain boundary keep the sender's
// scheduling tick, so same-tick ties between local and remote events
// resolve by *when each cause happened*, matching the order the serial
// heap would have produced. ord is a static scheduler-identity key
// (links pass their build order, interrupt dispatch the IRQ line;
// everything else leaves it zero): when two different schedulers
// collide on the full (when, prio, sched) triple — lockstep-symmetric
// endpoints do this — the serial seq tiebreak encodes unbounded
// scheduling history that a barrier-synchronized drain cannot
// reconstruct, so both the serial heap and the parallel drain resolve
// those ties by ord instead and the orders coincide by construction.
// Equal-ord ties come from the same scheduler (or from plain un-keyed
// events), where insertion order is causally reproducible and seq
// suffices.
type eventHeap struct {
	items []*Event
}

func (h *eventHeap) len() int { return len(h.items) }

func (h *eventHeap) less(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	if a.sched != b.sched {
		return a.sched < b.sched
	}
	if a.ord != b.ord {
		return a.ord < b.ord
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e *Event) {
	e.idx = len(h.items)
	h.items = append(h.items, e)
	h.up(e.idx)
}

func (h *eventHeap) pop() *Event {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[0].idx = 0
	h.items[last] = nil
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	top.idx = -1
	return top
}

// remove extracts an arbitrary event from the middle of the heap.
func (h *eventHeap) remove(e *Event) {
	i := e.idx
	last := len(h.items) - 1
	if i < 0 || i > last || h.items[i] != e {
		return
	}
	h.items[i] = h.items[last]
	h.items[i].idx = i
	h.items[last] = nil
	h.items = h.items[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	e.idx = -1
}

func (h *eventHeap) up(i int) {
	item := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(item, h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		h.items[i].idx = i
		i = parent
	}
	h.items[i] = item
	item.idx = i
}

func (h *eventHeap) down(i int) {
	item := h.items[i]
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			child = right
		}
		if !h.less(h.items[child], item) {
			break
		}
		h.items[i] = h.items[child]
		h.items[i].idx = i
		i = child
	}
	h.items[i] = item
	item.idx = i
}
