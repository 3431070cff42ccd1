package pcie

import (
	"testing"

	"pciesim/internal/fault"
	"pciesim/internal/mem"
	"pciesim/internal/sim"
	"pciesim/internal/testdev"
)

// TestLinkTimersFollowRetrains: the cached replay-timeout and ACK
// intervals track the link's Gen/Width through a forced downtrain and
// the upgrade retrain that undoes it.
func TestLinkTimersFollowRetrains(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Width = 4
	deg := DefaultDegradeConfig()
	deg.UpgradeBackoff = 100 * sim.Microsecond
	deg.MaxUpgradeBackoff = deg.UpgradeBackoff
	cfg.Degrade = &deg
	cfg.Fault = &fault.Plan{Downtrains: []sim.Tick{2 * sim.Microsecond}}
	r := newLinkRig(cfg, 10*sim.Nanosecond, 0)
	for i := 0; i < 20; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	l := r.link
	check := func(when string) {
		t.Helper()
		g, w, c := l.CurrentGen(), l.CurrentWidth(), l.Config()
		if got, want := l.ReplayTimeout(), ReplayTimeout(g, w, c.MaxPayload, c.Overheads); got != want {
			t.Errorf("%s (%v x%d): ReplayTimeout = %v, want %v", when, g, w, got, want)
		}
		if got, want := l.AckPeriod(), AckPeriodClamped(g, w, c.MaxPayload, c.Overheads); got != want {
			t.Errorf("%s (%v x%d): AckPeriod = %v, want %v", when, g, w, got, want)
		}
	}
	check("at build")
	x4 := l.ReplayTimeout()

	r.eng.RunWhile(func() bool { return r.eng.Now() < 50*sim.Microsecond })
	if l.Downtrains() != 1 || l.CurrentWidth() != 2 {
		t.Fatalf("after the forced downtrain: %d downtrains, x%d; want 1, x2", l.Downtrains(), l.CurrentWidth())
	}
	check("after downtrain")
	if l.ReplayTimeout() == x4 {
		t.Error("ReplayTimeout did not change with the width")
	}

	r.eng.Run()
	if l.Uptrains() != 1 || l.CurrentWidth() != 4 {
		t.Fatalf("after the upgrade: %d uptrains, x%d; want 1, x4", l.Uptrains(), l.CurrentWidth())
	}
	check("after upgrade")
	checkExactlyOnce(t, r, 20)
}

// postedSink accepts every request and never answers, so all TLP
// traffic on a link runs one way and only ACKs come back.
type postedSink struct{ got int }

func (s *postedSink) RecvTimingReq(*mem.SlavePort, *mem.Packet) bool { s.got++; return true }
func (s *postedSink) RecvRespRetry(*mem.SlavePort)                   {}
func (s *postedSink) AddrRanges(*mem.SlavePort) mem.RangeList        { return nil }

// TestSplitLinkFreeListsBounded drives a link cut between two timing
// domains with one-way posted writes. Each free list may only be
// touched by its own domain, so a delivered snapshot must not land on
// the receiver's list; with asymmetric traffic such a list would grow
// by one per TLP. Run it with -race: the two ends run on different
// goroutines.
func TestSplitLinkFreeListsBounded(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.applyDefaults()
	upEng, downEng := sim.NewEngine(), sim.NewEngine()
	quantum := WireTime(cfg.Gen, cfg.Width, cfg.Overheads.DLLPWireBytes()) + cfg.PropDelay
	sim.NewCoordinator(quantum, upEng, downEng)
	l := NewLinkSplit(upEng, downEng, "cut", 1, cfg)
	req := testdev.NewRequester(upEng, "rc")
	sink := &postedSink{}
	mem.Connect(req.Port(), l.Up().SlavePort())
	mem.Connect(l.Down().MasterPort(), mem.NewSlavePort("sink.port", sink))

	const n = 2000
	for i := 0; i < n; i++ {
		req.Write(uint64(i)*64, 64).Posted = true
	}
	upEng.Run()
	if sink.got != n {
		t.Fatalf("sink received %d writes, want %d", sink.got, n)
	}
	// The working set is a replay buffer's worth of entries plus the
	// packets on the wire; it must not grow with the TLP count.
	bound := 2 * cfg.ReplayBufferSize
	for _, i := range []*Interface{l.Up(), l.Down()} {
		if f, e := len(i.flightFree), len(i.entryFree); f > bound || e > bound {
			t.Errorf("%s: %d free flights, %d free entries after %d TLPs; want each <= %d",
				i.Name(), f, e, n, bound)
		}
	}
}

// txnAllocs returns the allocations of n closed-loop 64 B writes
// between a testdev requester and responder, after a warm-up, with
// wire connecting the two.
func txnAllocs(t *testing.T, n int, wire func(eng *sim.Engine, m *mem.MasterPort, s *mem.SlavePort)) float64 {
	t.Helper()
	eng := sim.NewEngine()
	req := testdev.NewRequester(eng, "req")
	resp := testdev.NewResponder(eng, "resp", nil, 10*sim.Nanosecond, 0)
	wire(eng, req.Port(), resp.Port())
	const window = 4
	issued, done := 0, 0
	next := func() {
		req.Write(uint64(issued%1024)*64, 64)
		issued++
	}
	req.OnComplete = func(testdev.Completion) {
		done++
		req.Completions = req.Completions[:0]
		resp.Received = resp.Received[:0]
		if issued < n {
			next()
		}
	}
	batch := func() {
		issued, done = 0, 0
		for issued < window {
			next()
		}
		eng.Run()
	}
	batch() // warm-up: grow every free list and queue to its working size
	if done != n {
		t.Fatalf("%d of %d transactions completed", done, n)
	}
	return testing.AllocsPerRun(5, batch)
}

// TestLinkAddsNoAllocsPerTransaction pins the zero-allocation link
// path: once warm, a link between a testdev requester and responder
// costs no more allocations than wiring the two directly. Replay
// entries, wire flights, FC DLLPs and delivery callbacks all recycle.
func TestLinkAddsNoAllocsPerTransaction(t *testing.T) {
	const n = 500
	direct := txnAllocs(t, n, func(_ *sim.Engine, m *mem.MasterPort, s *mem.SlavePort) {
		mem.Connect(m, s)
	})
	for _, c := range []struct {
		name    string
		credits CreditConfig
	}{
		{"legacy", CreditConfig{}},
		{"credits", UniformCredits(2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			linked := txnAllocs(t, n, func(eng *sim.Engine, m *mem.MasterPort, s *mem.SlavePort) {
				cfg := DefaultLinkConfig()
				cfg.Credits = c.credits
				l := NewLink(eng, "link", cfg)
				mem.Connect(m, l.Up().SlavePort())
				mem.Connect(l.Down().MasterPort(), s)
			})
			if linked > direct {
				t.Errorf("%d transactions allocate %.0f objects through a link, %.0f wired directly",
					n, linked, direct)
			}
		})
	}
}
