package pcie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pciesim/internal/fault"
	"pciesim/internal/mem"
	"pciesim/internal/pci"
	"pciesim/internal/sim"
	"pciesim/internal/testdev"
)

// checkExactlyOnce asserts the core delivery property: every queued
// request was delivered to the device exactly once, in order, and
// completed back to the requester.
func checkExactlyOnce(t *testing.T, r *linkRig, n int) {
	t.Helper()
	if len(r.resp.Received) != n {
		t.Fatalf("device received %d packets, want %d", len(r.resp.Received), n)
	}
	for i, p := range r.resp.Received {
		if p.Addr != uint64(i)*64 {
			t.Fatalf("packet %d out of order: addr %#x", i, p.Addr)
		}
	}
	if len(r.req.Completions) != n {
		t.Fatalf("%d completions, want %d", len(r.req.Completions), n)
	}
}

// Satellite fix regression: ACK/NAK DLLPs themselves are subject to
// corruption. A corrupted ACK must be dropped by the receiver's CRC
// check and recovered through the ACK-timer/replay path — never crash
// the replay buffer, never duplicate a delivery.
func TestLinkScriptedDLLPCorruptionRecovers(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.ReplayBufferSize = 4
	// Corrupt the first three ACK/NAK DLLPs the device transmits.
	cfg.Fault = &fault.Plan{
		Down: fault.Profile{Script: []fault.Event{
			{At: 0, Op: fault.OpCorruptDLLP},
			{At: 0, Op: fault.OpCorruptDLLP},
			{At: 0, Op: fault.OpCorruptDLLP},
		}},
	}
	r := newLinkRig(cfg, 5*sim.Nanosecond, 0)
	const n = 24
	for i := 0; i < n; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	r.eng.Run()
	checkExactlyOnce(t, r, n)
	up := r.link.Up().Stats()
	if up.BadDLLPs != 3 {
		t.Errorf("up interface dropped %d bad DLLPs, want 3", up.BadDLLPs)
	}
	// Recovery must have come through the timers: the sender either
	// replayed or the receiver re-ACKed, but nothing was lost above.
	if up.AcksRx == 0 {
		t.Error("no ACK ever got through")
	}
}

// A mid-stream surprise-down window with a finite duration retrains and
// resumes: DLL state survives, so the stream continues with no loss and
// no duplication.
func TestLinkDownRetrainMidStream(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.ReplayBufferSize = 4
	cfg.Fault = &fault.Plan{
		Windows:        []fault.Window{{At: 2 * sim.Microsecond, Duration: 3 * sim.Microsecond}},
		RetrainLatency: sim.Microsecond,
	}
	r := newLinkRig(cfg, 10*sim.Nanosecond, 0)
	const n = 40
	for i := 0; i < n; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	r.eng.Run()
	checkExactlyOnce(t, r, n)
	if got := r.link.Retrains(); got != 1 {
		t.Errorf("retrains = %d, want 1", got)
	}
	if r.link.Dead() || r.link.IsDown() {
		t.Error("link must be back up after retraining")
	}
	up := r.link.Up().Stats()
	if up.DownRefused == 0 && up.DownDrops == 0 && r.link.Down().Stats().DownDrops == 0 {
		t.Error("the window left no trace in the down-window counters")
	}
}

// Extended exactly-once property (DESIGN.md §7): for any combination of
// TLP corruption, ACK/NAK DLLP corruption, packet drops, device
// refusals, replay-buffer depth, and a mid-stream link-down/retrain
// window, every accepted TLP is delivered exactly once, in order, and
// the run terminates (no loss, no duplication, no deadlock).
func TestLinkExactlyOnceUnderFaultsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultLinkConfig()
		cfg.ReplayBufferSize = 1 + rng.Intn(6)
		cfg.Width = []int{1, 2, 4, 8}[rng.Intn(4)]
		rates := fault.Rates{
			TLPCorrupt:  float64(rng.Intn(3)) * 0.08,
			DLLPCorrupt: float64(rng.Intn(3)) * 0.08,
			Drop:        float64(rng.Intn(3)) * 0.05,
		}
		plan := &fault.Plan{
			Seed: uint64(seed)*2 + 1,
			Up:   fault.Profile{Rates: rates},
			Down: fault.Profile{Rates: rates},
		}
		if rng.Intn(2) == 0 {
			plan.Windows = []fault.Window{{
				At:       sim.Tick(1+rng.Intn(10)) * sim.Microsecond,
				Duration: sim.Tick(1+rng.Intn(5)) * sim.Microsecond,
			}}
			plan.RetrainLatency = sim.Tick(rng.Intn(3)) * sim.Microsecond
		}
		cfg.Fault = plan
		r := newLinkRig(cfg, sim.Tick(rng.Intn(200))*sim.Nanosecond, 0)
		r.resp.RefuseRequests = rng.Intn(20)
		n := 20 + rng.Intn(40)
		for i := 0; i < n; i++ {
			r.req.Write(uint64(i)*64, 64)
		}
		r.eng.Run()
		if len(r.resp.Received) != n || len(r.req.Completions) != n {
			return false
		}
		for i, p := range r.resp.Received {
			if p.Addr != uint64(i)*64 {
				return false
			}
		}
		return r.eng.Drained()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Faulted runs replay bit-identically: the same plan and seed produce
// the same protocol statistics, tick for tick.
func TestLinkFaultDeterminism(t *testing.T) {
	run := func() (LinkStats, LinkStats, sim.Tick) {
		cfg := DefaultLinkConfig()
		cfg.ReplayBufferSize = 3
		cfg.Fault = &fault.Plan{
			Seed: 99,
			Up:   fault.Profile{Rates: fault.Rates{TLPCorrupt: 0.1, DLLPCorrupt: 0.1, Drop: 0.05}},
			Down: fault.Profile{Rates: fault.Rates{TLPCorrupt: 0.1, DLLPCorrupt: 0.1, Drop: 0.05}},
		}
		r := newLinkRig(cfg, 20*sim.Nanosecond, 0)
		for i := 0; i < 50; i++ {
			r.req.Write(uint64(i)*64, 64)
		}
		r.eng.Run()
		return r.link.Up().Stats(), r.link.Down().Stats(), r.eng.Now()
	}
	u1, d1, t1 := run()
	u2, d2, t2 := run()
	if u1 != u2 || d1 != d2 || t1 != t2 {
		t.Fatalf("faulted run is not deterministic:\n%+v vs %+v\n%+v vs %+v\n%v vs %v",
			u1, u2, d1, d2, t1, t2)
	}
}

// Deadlock regression: a permanently-down link must terminate, not
// hang. The root complex's completion timeout answers every stranded
// non-posted request with an error completion, admitted TLPs are
// black-holed, and the event queue drains.
func TestDeadLinkCompletionTimeoutDrainsEventQueue(t *testing.T) {
	eng := sim.NewEngine()
	host := pci.NewHost(eng, "pcihost", pci.HostConfig{ECAMWindow: mem.Range(0x30000000, 256<<20)})
	rcCfg := RootComplexConfig{NumRootPorts: 2}
	rcCfg.CompletionTimeout = 20 * sim.Microsecond
	rc := NewRootComplex(eng, "rc", host, rcCfg)

	cpu := testdev.NewRequester(eng, "cpu")
	mem.Connect(cpu.Port(), rc.UpstreamSlave())
	memory := testdev.NewResponder(eng, "mem", nil, 50*sim.Nanosecond, 0)
	mem.Connect(rc.UpstreamMaster(), memory.Port())

	lcfg := DefaultLinkConfig()
	lcfg.Fault = &fault.Plan{
		Windows: []fault.Window{{At: sim.Microsecond, Duration: 0}}, // permanent
	}
	link := NewLink(eng, "deadlink", lcfg)
	rc.RootPort(0).ConnectLink(link)
	link.Up().SetAER(rc.RootPort(0).AER())
	dev := testdev.NewResponder(eng, "dev", nil, 100*sim.Nanosecond, 0)
	mem.Connect(link.Down().MasterPort(), dev.Port())

	programBridge(rc.RootPort(0).VP2P(), 0, 1, 1, 0x40000000, 0x400fffff)

	const n = 24
	cpu.Window = 2
	for i := 0; i < n; i++ {
		cpu.Read(0x40000000+uint64(i)*64, 64)
	}
	eng.Run() // a hung event queue fails this test by timeout

	if !eng.Drained() {
		t.Fatal("event queue not drained")
	}
	if !link.Dead() {
		t.Fatal("link should be dead")
	}
	if len(cpu.Completions) != n {
		t.Fatalf("%d completions, want %d: every request must be answered", len(cpu.Completions), n)
	}
	var errored, clean int
	for _, c := range cpu.Completions {
		if c.Pkt.Error {
			errored++
			for _, b := range c.Pkt.Data {
				if b != 0xff {
					t.Fatal("errored read must return all-ones data")
				}
			}
		} else {
			clean++
		}
	}
	if clean == 0 || errored == 0 {
		t.Fatalf("want a mix of clean and errored completions, got %d clean / %d errored", clean, errored)
	}
	fired, _ := rc.CompletionTimeouts()
	if fired != uint64(errored) {
		t.Errorf("RC synthesized %d error completions, requester saw %d", fired, errored)
	}
	// The error paths latched AER state at the surviving ends.
	if rc.RootPort(0).AER().UncorrectableStatus()&pci.AERUncCompletionTimeout == 0 {
		t.Error("root port AER must latch CompletionTimeout")
	}
}

// A link declared dead via DeadThreshold (the partner stops answering
// entirely, detected by consecutive replay-timer expirations) flushes
// its buffers and black-holes traffic exactly like a scripted death.
func TestDeadThresholdDeclaresLinkDown(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.ReplayBufferSize = 2
	cfg.Fault = &fault.Plan{
		// Drop everything in both directions: no TLP and no ACK ever
		// arrives, so replay timers expire back to back.
		Up:            fault.Profile{Rates: fault.Rates{Drop: 1}},
		Down:          fault.Profile{Rates: fault.Rates{Drop: 1}},
		DeadThreshold: 8,
	}
	r := newLinkRig(cfg, 0, 0)
	for i := 0; i < 4; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	r.eng.Run()
	if !r.eng.Drained() {
		t.Fatal("event queue not drained")
	}
	if !r.link.Dead() {
		t.Fatal("link must be declared dead by the threshold")
	}
	up := r.link.Up().Stats()
	if up.FlushedTLPs == 0 {
		t.Error("death must flush the unacknowledged replay buffer")
	}
	if up.Timeouts < 8 {
		t.Errorf("expected >=8 replay timeouts before death, got %d", up.Timeouts)
	}
}

// A completion that arrives after the root complex already answered its
// request — by the completion timer or by DPC containment — must be
// swallowed, never delivered to the requester a second time, and
// counted on the answerer's late counter. Root port 0 is wired directly
// to a responder that takes 50us, well past the 20us timeout; whichever
// mechanism answers first owns every request.
func TestLateCompletionSwallowed(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name      string
		dpc       bool
		triggerAt sim.Tick // 0: no containment trigger
		// Requests the timer answers and requests containment answers.
		wantFired, wantSynth uint64
	}{
		{"timeout", false, 0, n, 0},
		{"dpc-before-timeout", true, 5 * sim.Microsecond, 0, n},
		{"dpc-after-timeout", true, 30 * sim.Microsecond, n, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := RootComplexConfig{}
			cfg.CompletionTimeout = 20 * sim.Microsecond
			cfg.EnableDPC = tc.dpc
			r := newRCRig(t, cfg)
			r.dev0.Latency = 50 * sim.Microsecond
			port := r.rc.RootPort(0)
			if tc.dpc {
				// Software arms fatal-error triggering.
				port.VP2P().ConfigWrite(port.DPC().Offset()+pci.DPCCtlOff, 2, 1)
			}
			if tc.triggerAt > 0 {
				r.eng.ScheduleAt("trigger", tc.triggerAt, sim.PriorityDefault, func() {
					port.triggerDPC(pci.DPCReasonFatal)
				})
			}
			for i := 0; i < n; i++ {
				r.cpu.Read(0x40000000+uint64(i)*64, 64)
			}
			r.eng.Run()

			if !r.eng.Drained() {
				t.Fatal("event queue not drained")
			}
			if len(r.dev0.Received) != n {
				t.Fatalf("device received %d requests, want %d", len(r.dev0.Received), n)
			}
			if len(r.cpu.Completions) != n {
				t.Fatalf("%d completions, want %d: each request is answered exactly once", len(r.cpu.Completions), n)
			}
			for _, c := range r.cpu.Completions {
				if !c.Pkt.Error {
					t.Fatalf("pkt#%d completed clean; the genuine completion must be swallowed", c.Pkt.ID)
				}
			}
			fired, late := r.rc.CompletionTimeouts()
			if fired != tc.wantFired || late != tc.wantFired {
				t.Errorf("cto fired/late = %d/%d, want %d/%d", fired, late, tc.wantFired, tc.wantFired)
			}
			if !tc.dpc {
				return
			}
			reg := r.eng.Stats()
			synth, _ := reg.CounterValue("rc.rootport0.dpc.np_synth")
			dpcLate, _ := reg.CounterValue("rc.rootport0.dpc.late")
			if synth != tc.wantSynth || dpcLate != tc.wantSynth {
				t.Errorf("dpc np_synth/late = %d/%d, want %d/%d", synth, dpcLate, tc.wantSynth, tc.wantSynth)
			}
		})
	}
}
