// Package fault defines deterministic fault-injection plans for PCIe
// links. A Plan attaches to a link (LinkConfig.Fault) and describes,
// per transmit direction, which packets are corrupted or lost and when
// the link suffers surprise-down windows. Every decision is driven
// either by the link's seeded RNG or by a scripted (tick, event)
// schedule, so any scenario replays bit-identically under a fixed seed.
package fault

import (
	"fmt"
	"sort"

	"pciesim/internal/sim"
)

// Rates are stochastic per-transmission fault probabilities for one
// transmit direction, evaluated against the interface's seeded RNG.
type Rates struct {
	// TLPCorrupt is the probability a transmitted TLP carries a bad
	// LCRC; the receiver discards it and NAKs (the §V-C replay path).
	TLPCorrupt float64
	// DLLPCorrupt is the probability a transmitted ACK/NAK DLLP
	// carries a bad CRC. DLLPs are not replayed: the receiver drops
	// them silently and the ACK timer / replay timer recover.
	DLLPCorrupt float64
	// Drop is the probability any packet (TLP or DLLP) vanishes on
	// the wire after occupying it — a model of detectable-but-lost
	// symbols (electrical idle glitches, receiver overflow).
	Drop float64
	// UpdateFCDrop is the probability a transmitted UpdateFC DLLP
	// vanishes on the wire, starving the peer of returned credits
	// until the bounded FC refresh re-advertises them. Only
	// meaningful on links with finite credits.
	UpdateFCDrop float64
}

// Zero reports whether the rates inject nothing.
func (r Rates) Zero() bool {
	return r.TLPCorrupt <= 0 && r.DLLPCorrupt <= 0 && r.Drop <= 0 && r.UpdateFCDrop <= 0
}

// Op identifies a scripted fault kind.
type Op int

const (
	// OpCorruptTLP corrupts the next TLP transmitted at or after At.
	OpCorruptTLP Op = iota
	// OpCorruptDLLP corrupts the next ACK/NAK DLLP transmitted at or
	// after At.
	OpCorruptDLLP
	// OpDrop drops the next packet of any kind transmitted at or
	// after At.
	OpDrop
	// OpDropUpdateFC drops the next UpdateFC DLLP transmitted at or
	// after At (credit-return loss; recovered by the FC refresh).
	OpDropUpdateFC
	// OpStarveFC is a credit-starvation window: every UpdateFC
	// transmission in [At, At+Duration) is dropped, so the peer's
	// view of this side's credits freezes for the window. Unlike the
	// one-shot ops it needs Event.Duration set.
	OpStarveFC
)

func (o Op) String() string {
	switch o {
	case OpCorruptTLP:
		return "corrupt-tlp"
	case OpCorruptDLLP:
		return "corrupt-dllp"
	case OpDrop:
		return "drop"
	case OpDropUpdateFC:
		return "drop-updatefc"
	case OpStarveFC:
		return "starve-fc"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Event is one scripted fault: the first transmission matching Op at
// simulated time >= At is faulted. Events fire in schedule order; an
// earlier event never yields to a later one (an expired OpStarveFC
// window is the exception — it is skipped once it closes).
type Event struct {
	At sim.Tick
	Op Op
	// Duration extends OpStarveFC into a window; it must be zero for
	// every other op.
	Duration sim.Tick
}

// Profile is the fault configuration for one transmit direction: a
// stochastic background plus an ordered script of guaranteed faults.
type Profile struct {
	Rates  Rates
	Script []Event
}

// Window is a surprise link-down episode. The link drops at At, stays
// down for Duration, then retrains (taking the plan's RetrainLatency)
// before carrying traffic again. Duration 0 means the link never comes
// back: it is declared dead, buffers are flushed, and subsequent
// traffic is black-holed so requesters fail by completion timeout
// rather than deadlocking.
type Window struct {
	At       sim.Tick
	Duration sim.Tick
}

// Permanent reports whether the window takes the link down for good.
func (w Window) Permanent() bool { return w.Duration == 0 }

// Hotplug is a surprise hot-plug episode: the device below the link is
// yanked at RemoveAt (slot presence drops, in-flight traffic is flushed
// and contained), and — unless ReinsertAfter is zero — re-seated
// ReinsertAfter later, after which the link retrains from scratch and
// the kernel re-enumerates the sub-tree. ReinsertAfter 0 means the
// device never returns.
type Hotplug struct {
	RemoveAt      sim.Tick
	ReinsertAfter sim.Tick
}

// Permanent reports whether the removal is for good.
func (h Hotplug) Permanent() bool { return h.ReinsertAfter == 0 }

// Plan is the full fault model for one link.
type Plan struct {
	// Seed overrides the link's RNG seed when nonzero, so one plan
	// can be replayed on differently-seeded links.
	Seed uint64
	// Up applies to packets transmitted by the link's upstream-side
	// interface (traveling downstream, toward the device). Down
	// applies to packets transmitted by the downstream-side interface
	// (traveling upstream, toward the root complex).
	Up, Down Profile
	// Windows are surprise link-down episodes, sorted by At. A window
	// that opens while the link is already down or dead is ignored.
	Windows []Window
	// RetrainLatency is the LTSSM recovery time appended to every
	// finite window before the link carries traffic again.
	RetrainLatency sim.Tick
	// DeadThreshold declares the link surprise-down permanently after
	// this many consecutive replay-timer expirations on one interface
	// without an intervening ACK/NAK — a requester-visible model of a
	// partner that stopped responding. 0 disables detection.
	DeadThreshold int
	// Downtrains forces a one-step link degradation (width halved, or
	// the next-lower generation at x1) at each listed tick, modeling
	// lane failures the LTSSM negotiates around. Each downtrain takes
	// the link through a DL-down/retrain cycle. Requires the link to
	// have a DegradeConfig armed.
	Downtrains []sim.Tick
	// Hotplugs are surprise-removal episodes, sorted by RemoveAt.
	Hotplugs []Hotplug
}

// Normalize sorts windows and scripts into schedule order and
// validates the plan. It is idempotent and safe to call on a shared
// plan; links call it at construction.
func (p *Plan) Normalize() error {
	if p == nil {
		return nil
	}
	for _, r := range []Rates{p.Up.Rates, p.Down.Rates} {
		for _, v := range []float64{r.TLPCorrupt, r.DLLPCorrupt, r.Drop, r.UpdateFCDrop} {
			if v < 0 || v > 1 {
				return fmt.Errorf("fault: rate %v out of range [0,1]", v)
			}
		}
	}
	for _, s := range [][]Event{p.Up.Script, p.Down.Script} {
		for _, ev := range s {
			if ev.Duration < 0 {
				return fmt.Errorf("fault: script event at %v with negative duration", ev.At)
			}
			if ev.Duration > 0 && ev.Op != OpStarveFC {
				return fmt.Errorf("fault: script op %v at %v must not set Duration", ev.Op, ev.At)
			}
		}
	}
	sort.SliceStable(p.Up.Script, func(a, b int) bool { return p.Up.Script[a].At < p.Up.Script[b].At })
	sort.SliceStable(p.Down.Script, func(a, b int) bool { return p.Down.Script[a].At < p.Down.Script[b].At })
	sort.SliceStable(p.Windows, func(a, b int) bool { return p.Windows[a].At < p.Windows[b].At })
	for k := 1; k < len(p.Windows); k++ {
		prev := p.Windows[k-1]
		if prev.Permanent() {
			return fmt.Errorf("fault: window at %v follows a permanent window at %v", p.Windows[k].At, prev.At)
		}
		if p.Windows[k].At < prev.At+prev.Duration+p.RetrainLatency {
			return fmt.Errorf("fault: window at %v overlaps the previous window", p.Windows[k].At)
		}
	}
	if p.DeadThreshold < 0 {
		return fmt.Errorf("fault: DeadThreshold %d is negative", p.DeadThreshold)
	}
	sort.Slice(p.Downtrains, func(a, b int) bool { return p.Downtrains[a] < p.Downtrains[b] })
	for _, at := range p.Downtrains {
		if at < 0 {
			return fmt.Errorf("fault: downtrain at negative tick %v", at)
		}
	}
	sort.SliceStable(p.Hotplugs, func(a, b int) bool { return p.Hotplugs[a].RemoveAt < p.Hotplugs[b].RemoveAt })
	for k, h := range p.Hotplugs {
		if h.RemoveAt < 0 || h.ReinsertAfter < 0 {
			return fmt.Errorf("fault: hotplug event with negative time (remove %v, reinsert %v)", h.RemoveAt, h.ReinsertAfter)
		}
		if k == 0 {
			continue
		}
		prev := p.Hotplugs[k-1]
		if prev.Permanent() {
			return fmt.Errorf("fault: hotplug at %v follows a permanent removal at %v", h.RemoveAt, prev.RemoveAt)
		}
		if h.RemoveAt < prev.RemoveAt+prev.ReinsertAfter+p.RetrainLatency {
			return fmt.Errorf("fault: hotplug at %v overlaps the previous episode", h.RemoveAt)
		}
	}
	return nil
}

// Active reports whether the plan injects anything at all.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return !p.Up.Rates.Zero() || !p.Down.Rates.Zero() ||
		len(p.Up.Script) > 0 || len(p.Down.Script) > 0 ||
		len(p.Windows) > 0 || p.DeadThreshold > 0 ||
		len(p.Downtrains) > 0 || len(p.Hotplugs) > 0
}

// Injector evaluates one direction's Profile for a transmitting
// interface. All methods are nil-safe no-ops so fault-free links pay
// no branches beyond a nil check, and — critically for baseline
// bit-identity — draw from the RNG only for rates that are nonzero.
type Injector struct {
	prof Profile
	rng  *sim.Rand
	next int // index of the first unfired script event
}

// NewInjector binds a profile to the transmitting interface's RNG.
func NewInjector(prof Profile, rng *sim.Rand) *Injector {
	return &Injector{prof: prof, rng: rng}
}

// scriptHit fires the head script event if it matches op and is due.
// Expired starvation windows at the head are retired first so they
// cannot block later events forever.
func (j *Injector) scriptHit(now sim.Tick, op Op) bool {
	for j.next < len(j.prof.Script) {
		ev := j.prof.Script[j.next]
		if ev.Op == OpStarveFC && now >= ev.At+ev.Duration {
			j.next++
			continue
		}
		if ev.Op != op || now < ev.At {
			return false
		}
		j.next++
		return true
	}
	return false
}

// starving reports whether the head script event is an open
// credit-starvation window.
func (j *Injector) starving(now sim.Tick) bool {
	if j.next >= len(j.prof.Script) {
		return false
	}
	ev := j.prof.Script[j.next]
	return ev.Op == OpStarveFC && now >= ev.At && now < ev.At+ev.Duration
}

// CorruptTLP decides whether this TLP transmission carries a bad LCRC.
func (j *Injector) CorruptTLP(now sim.Tick) bool {
	if j == nil {
		return false
	}
	if j.scriptHit(now, OpCorruptTLP) {
		return true
	}
	return j.prof.Rates.TLPCorrupt > 0 && j.rng.Bool(j.prof.Rates.TLPCorrupt)
}

// CorruptDLLP decides whether this ACK/NAK transmission carries a bad
// CRC.
func (j *Injector) CorruptDLLP(now sim.Tick) bool {
	if j == nil {
		return false
	}
	if j.scriptHit(now, OpCorruptDLLP) {
		return true
	}
	return j.prof.Rates.DLLPCorrupt > 0 && j.rng.Bool(j.prof.Rates.DLLPCorrupt)
}

// Drop decides whether this packet vanishes on the wire.
func (j *Injector) Drop(now sim.Tick) bool {
	if j == nil {
		return false
	}
	if j.scriptHit(now, OpDrop) {
		return true
	}
	return j.prof.Rates.Drop > 0 && j.rng.Bool(j.prof.Rates.Drop)
}

// DropUpdateFC decides whether this UpdateFC DLLP transmission is lost:
// a one-shot OpDropUpdateFC script event, an open OpStarveFC window
// (not consumed — it swallows every UpdateFC until it closes), or the
// stochastic UpdateFCDrop rate.
func (j *Injector) DropUpdateFC(now sim.Tick) bool {
	if j == nil {
		return false
	}
	if j.scriptHit(now, OpDropUpdateFC) {
		return true
	}
	if j.starving(now) {
		return true
	}
	return j.prof.Rates.UpdateFCDrop > 0 && j.rng.Bool(j.prof.Rates.UpdateFCDrop)
}

// CorruptionPlan builds the single-knob error-injection plan:
// stochastic TLP corruption at the given rate in both directions. It
// returns nil for rate 0 so callers can assign the result
// unconditionally.
func CorruptionPlan(rate float64) *Plan {
	if rate <= 0 {
		return nil
	}
	return &Plan{
		Up:   Profile{Rates: Rates{TLPCorrupt: rate}},
		Down: Profile{Rates: Rates{TLPCorrupt: rate}},
	}
}
