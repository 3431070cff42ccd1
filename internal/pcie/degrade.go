// Adaptive link degradation: the LTSSM-level response to a link that
// keeps erroring. Real silicon downtrains — a retrain comes back at a
// reduced width (lane reversal/disable) or a lower generation — rather
// than replaying forever at full speed, and periodically attempts an
// upgrade retrain back toward the configured rate. This file models
// that policy as a ladder of (Gen, Width) levels: level 0 is the
// configured link, each step halves the width down to MinWidth, then
// steps the generation down to MinGen.
//
// A nil DegradeConfig disables everything: no state is allocated, no
// stats are registered, and the link is byte-identical to the
// pre-degradation simulator.
package pcie

import (
	"fmt"

	"pciesim/internal/sim"
	"pciesim/internal/stats"
	"pciesim/internal/trace"
)

// DegradeConfig arms adaptive link degradation on a link.
type DegradeConfig struct {
	// Window is the sliding error window; Threshold link errors (CRC
	// failures, bad DLLPs, replay timeouts) inside it trigger a
	// one-step downtrain.
	Window sim.Tick
	// Threshold is the error count that triggers a downtrain.
	Threshold int
	// RetrainLatency is the LTSSM recovery time of a degradation or
	// upgrade retrain (the link carries no traffic while it runs).
	RetrainLatency sim.Tick
	// UpgradeBackoff is the delay before the first upgrade-retrain
	// attempt after a downtrain; it doubles per attempt up to
	// MaxUpgradeBackoff and resets once the link is back at level 0.
	UpgradeBackoff sim.Tick
	// MaxUpgradeBackoff caps the exponential backoff.
	MaxUpgradeBackoff sim.Tick
	// MinWidth is the narrowest width the ladder reaches (>= 1).
	MinWidth int
	// MinGen is the lowest generation the ladder reaches.
	MinGen Generation
}

// DefaultDegradeConfig returns the calibrated degradation policy: an
// 8-error / 1 ms trigger window, 20 µs retrains, and upgrade attempts
// backing off 1 ms → 16 ms.
func DefaultDegradeConfig() DegradeConfig {
	return DegradeConfig{
		Window:            sim.Millisecond,
		Threshold:         8,
		RetrainLatency:    20 * sim.Microsecond,
		UpgradeBackoff:    sim.Millisecond,
		MaxUpgradeBackoff: 16 * sim.Millisecond,
		MinWidth:          1,
		MinGen:            Gen1,
	}
}

func (c *DegradeConfig) applyDefaults() {
	d := DefaultDegradeConfig()
	if c.Window == 0 {
		c.Window = d.Window
	}
	if c.Threshold == 0 {
		c.Threshold = d.Threshold
	}
	if c.RetrainLatency == 0 {
		c.RetrainLatency = d.RetrainLatency
	}
	if c.UpgradeBackoff == 0 {
		c.UpgradeBackoff = d.UpgradeBackoff
	}
	if c.MaxUpgradeBackoff == 0 {
		c.MaxUpgradeBackoff = d.MaxUpgradeBackoff
	}
	if c.MinWidth == 0 {
		c.MinWidth = 1
	}
	if c.MinGen == 0 {
		c.MinGen = Gen1
	}
}

// Validate rejects configurations the ladder cannot express.
func (c DegradeConfig) Validate() error {
	if c.Window < 0 || c.RetrainLatency < 0 || c.UpgradeBackoff < 0 || c.MaxUpgradeBackoff < 0 {
		return fmt.Errorf("pcie: negative duration in DegradeConfig")
	}
	if c.Threshold < 0 {
		return fmt.Errorf("pcie: negative degrade threshold %d", c.Threshold)
	}
	if c.MinWidth < 0 || c.MinWidth > 32 {
		return fmt.Errorf("pcie: degrade MinWidth %d out of range (1..32)", c.MinWidth)
	}
	if c.MinGen < 0 || c.MinGen > Gen3 {
		return fmt.Errorf("pcie: degrade MinGen %v out of range", c.MinGen)
	}
	return nil
}

// degradeState is the per-link degradation ladder.
type degradeState struct {
	cfg       DegradeConfig
	baseGen   Generation // configured (level-0) parameters
	baseWidth int
	level     int // current ladder position; 0 = configured
	maxLv     int
	// pendTarget is the level the next goUp applies; -1 when the
	// pending retrain is an ordinary fault-window recovery.
	pendTarget int

	errs       []sim.Tick // recent error ticks inside the window
	upgradeTmr *sim.Event
	backoff    sim.Tick // current upgrade backoff; 0 = not yet backing off

	downtrains uint64
	uptrains   uint64

	lvlGauge   *stats.Gauge
	widthGauge *stats.Gauge
	genGauge   *stats.Gauge
}

func newDegradeState(l *Link, cfg DegradeConfig) *degradeState {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("pcie: link %s: %v", l.name, err))
	}
	d := &degradeState{
		cfg:        cfg,
		baseGen:    l.cfg.Gen,
		baseWidth:  l.cfg.Width,
		pendTarget: -1,
	}
	if d.cfg.MinWidth > d.baseWidth {
		d.cfg.MinWidth = d.baseWidth
	}
	if d.cfg.MinGen > d.baseGen {
		d.cfg.MinGen = d.baseGen
	}
	d.maxLv = d.computeMaxLevel()
	d.upgradeTmr = l.eng.NewEvent(l.name+".upgradeTimer", func() { l.upgradeFire() })
	d.registerStats(l)
	return d
}

// registerStats publishes the degradation observables; called only on
// links with a DegradeConfig, so unarmed stats dumps are unchanged.
func (d *degradeState) registerStats(l *Link) {
	r := l.eng.Stats()
	pfx := "pcie." + l.name + ".degrade."
	r.CounterFunc(pfx+"downtrains", func() uint64 { return d.downtrains })
	r.CounterFunc(pfx+"uptrains", func() uint64 { return d.uptrains })
	d.lvlGauge = r.Gauge(pfx + "level")
	d.widthGauge = r.Gauge(pfx + "width")
	d.genGauge = r.Gauge(pfx + "gen")
	d.widthGauge.Set(int64(d.baseWidth))
	d.genGauge.Set(int64(d.baseGen))
}

// computeMaxLevel counts the ladder's steps: width halvings to
// MinWidth, then generation steps to MinGen.
func (d *degradeState) computeMaxLevel() int {
	lv := 0
	for w := d.baseWidth; w > d.cfg.MinWidth; lv++ {
		w /= 2
		if w < d.cfg.MinWidth {
			w = d.cfg.MinWidth
		}
	}
	for g := d.baseGen; g > d.cfg.MinGen; g-- {
		lv++
	}
	return lv
}

// params returns the (Gen, Width) the ladder prescribes at a level.
func (d *degradeState) params(level int) (Generation, int) {
	g, w := d.baseGen, d.baseWidth
	for s := 0; s < level; s++ {
		if w > d.cfg.MinWidth {
			w /= 2
			if w < d.cfg.MinWidth {
				w = d.cfg.MinWidth
			}
		} else if g > d.cfg.MinGen {
			g--
		}
	}
	return g, w
}

// --- Link-side hooks -------------------------------------------------

// noteLinkError records one link-layer error (CRC failure, bad DLLP,
// replay timeout) into the sliding window and triggers a one-step
// downtrain when the window fills. Nil-guarded so unarmed links pay a
// single branch.
func (l *Link) noteLinkError() {
	d := l.deg
	if d == nil || l.state != linkUp {
		return
	}
	now := l.eng.Now()
	d.errs = append(d.errs, now)
	cut := 0
	for cut < len(d.errs) && d.errs[cut]+d.cfg.Window <= now {
		cut++
	}
	if cut > 0 {
		d.errs = append(d.errs[:0], d.errs[cut:]...)
	}
	if len(d.errs) < d.cfg.Threshold {
		return
	}
	d.errs = d.errs[:0]
	if d.level >= d.maxLv {
		return // already at the floor; keep replaying
	}
	// Fresh trouble restarts the upgrade ladder from the initial
	// backoff once the link settles.
	d.backoff = 0
	l.retrainTo(d.level + 1)
}

// forceDowntrain is the scripted (fault-plan) one-step downtrain.
func (l *Link) forceDowntrain() {
	d := l.deg
	if d == nil || l.state != linkUp || d.level >= d.maxLv {
		return
	}
	d.backoff = 0
	l.retrainTo(d.level + 1)
}

// retrainTo takes the link down for a degradation/upgrade retrain that
// comes back at the given ladder level.
func (l *Link) retrainTo(level int) {
	if l.state != linkUp || l.deg == nil {
		return
	}
	l.deg.pendTarget = level
	// A previously armed upgrade attempt is obsolete (and its backoff
	// may just have been reset to 0): goUp re-arms via scheduleUpgrade.
	l.eng.Deschedule(l.deg.upgradeTmr)
	l.state = linkDown
	if tr := l.eng.Tracer(); tr.On(trace.CatFault) {
		tr.Emit(trace.CatFault, uint64(l.eng.Now()), "pcie."+l.name,
			"degrade-retrain", uint64(level), "")
	}
	l.up.pause()
	l.down.pause()
	l.eng.Schedule(l.name+".degretrain", l.deg.cfg.RetrainLatency, l.goUp)
}

// applyPendingLevel installs a pending ladder level at retrain
// completion; every WireTime computation reads the mutated cfg from
// here on, and the cached ReplayTimeout / AckPeriod are refreshed from
// it. Returns whether a level change happened.
func (l *Link) applyPendingLevel() bool {
	d := l.deg
	if d == nil || d.pendTarget < 0 {
		return false
	}
	target := d.pendTarget
	d.pendTarget = -1
	if target == d.level {
		return false
	}
	g, w := d.params(target)
	kind := "uptrain"
	if target > d.level {
		kind = "downtrain"
		d.downtrains++
	} else {
		d.uptrains++
	}
	d.level = target
	l.cfg.Gen, l.cfg.Width = g, w
	l.refreshTimers()
	d.lvlGauge.Set(int64(d.level))
	d.widthGauge.Set(int64(w))
	d.genGauge.Set(int64(g))
	if tr := l.eng.Tracer(); tr.On(trace.CatFault) {
		tr.Emit(trace.CatFault, uint64(l.eng.Now()), "pcie."+l.name,
			kind, uint64(target), fmt.Sprintf("%v x%d", g, w))
	}
	return true
}

// scheduleUpgrade arms the next upgrade-retrain attempt with
// exponential backoff; called after every retrain while degraded.
func (l *Link) scheduleUpgrade() {
	d := l.deg
	if d == nil {
		return
	}
	if d.level == 0 {
		d.backoff = 0
		l.eng.Deschedule(d.upgradeTmr)
		return
	}
	if d.backoff == 0 {
		d.backoff = d.cfg.UpgradeBackoff
	} else {
		d.backoff *= 2
		if d.backoff > d.cfg.MaxUpgradeBackoff {
			d.backoff = d.cfg.MaxUpgradeBackoff
		}
	}
	if !d.upgradeTmr.Scheduled() {
		l.eng.ScheduleEventAfter(d.upgradeTmr, d.backoff, sim.PriorityTimer)
	}
}

// upgradeFire attempts one upgrade retrain back toward level 0.
func (l *Link) upgradeFire() {
	d := l.deg
	if d == nil || d.level == 0 {
		return
	}
	if l.state != linkUp {
		// Mid-window or removed: try again after the current backoff.
		// The floor guards against a zero backoff (reset by a fresh
		// error burst) turning the retry into a same-tick spin.
		if l.state == linkDown && !d.upgradeTmr.Scheduled() {
			wait := d.backoff
			if wait <= 0 {
				wait = d.cfg.UpgradeBackoff
			}
			l.eng.ScheduleEventAfter(d.upgradeTmr, wait, sim.PriorityTimer)
		}
		return
	}
	l.retrainTo(d.level - 1)
}

// DegradeLevel returns the link's current ladder level (0 = the
// configured Gen/Width).
func (l *Link) DegradeLevel() int {
	if l.deg == nil {
		return 0
	}
	return l.deg.level
}

// Downtrains returns how many degradation retrains the link has taken.
func (l *Link) Downtrains() uint64 {
	if l.deg == nil {
		return 0
	}
	return l.deg.downtrains
}

// Uptrains returns how many upgrade retrains have completed.
func (l *Link) Uptrains() uint64 {
	if l.deg == nil {
		return 0
	}
	return l.deg.uptrains
}

// CurrentGen returns the link's present (possibly downtrained)
// generation.
func (l *Link) CurrentGen() Generation { return l.cfg.Gen }

// CurrentWidth returns the link's present (possibly downtrained) lane
// count.
func (l *Link) CurrentWidth() int { return l.cfg.Width }
