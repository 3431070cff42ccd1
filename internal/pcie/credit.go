// Transaction-layer credit-based flow control (VC0), layered above the
// data-link layer in link.go. Real PCIe backpressure is not "the
// receiver refused the packet": a transmitter may only send a TLP when
// it holds enough flow-control credits for the TLP's class, and the
// receiver returns credits with UpdateFC DLLPs as it drains its
// queues. This file implements that protocol per §2.6 of the spec,
// scaled to the simulator's fidelity:
//
//   - every TLP is classified Posted / Non-Posted / Completion;
//   - each class has a header credit counter (1 per TLP) and a data
//     credit counter (1 per 16 payload bytes);
//   - credit state is exchanged with InitFC1/InitFC2 DLLPs at link
//     bring-up and returned with UpdateFC DLLPs as the receiver
//     delivers TLPs to the local component;
//   - all counts on the wire are cumulative ("credits granted since
//     link-up"), so a lost or reordered UpdateFC is harmless — the
//     next one carries a superset of the information.
//
// A zero CreditConfig means infinite credits, which keeps the link in
// the legacy DLL-only mode: no FC state is allocated, no FC DLLPs are
// exchanged, no FC stats are registered, and every simulation is
// byte-identical to the pre-FC simulator.
package pcie

import (
	"fmt"
	"strconv"
	"strings"

	"pciesim/internal/mem"
	"pciesim/internal/sim"
	"pciesim/internal/stats"
	"pciesim/internal/trace"
)

// FCClass is a flow-control traffic class of virtual channel 0.
type FCClass uint8

const (
	// FCPosted covers posted requests: memory writes that never
	// generate a completion.
	FCPosted FCClass = iota
	// FCNonPosted covers non-posted requests: reads and the simulator's
	// default completion-acknowledged writes.
	FCNonPosted
	// FCCpl covers completions.
	FCCpl

	fcNumClasses = 3
)

func (c FCClass) String() string {
	switch c {
	case FCPosted:
		return "P"
	case FCNonPosted:
		return "NP"
	case FCCpl:
		return "Cpl"
	}
	return fmt.Sprintf("FCClass(%d)", uint8(c))
}

// FCClassOf classifies a TLP for flow-control accounting.
func FCClassOf(tlp *mem.Packet) FCClass {
	if !tlp.Cmd.IsRequest() {
		return FCCpl
	}
	if tlp.Posted {
		return FCPosted
	}
	return FCNonPosted
}

// FCDataUnit is the payload granularity of one data credit (the spec's
// 16-byte flow-control unit).
const FCDataUnit = 16

// fcDataCredits is the number of data credits a payload consumes.
func fcDataCredits(payloadBytes int) uint64 {
	return uint64((payloadBytes + FCDataUnit - 1) / FCDataUnit)
}

// tlpPayloadBytes is the TLP payload size used for data-credit
// accounting: writes and read responses carry Size bytes, everything
// else is header-only. (PciePkt.PayloadBytes applies the same rule.)
func tlpPayloadBytes(tlp *mem.Packet) int {
	switch tlp.Cmd {
	case mem.WriteReq, mem.ReadResp:
		return tlp.Size
	}
	return 0
}

// fcMaxCredits bounds any single advertised credit count; it exists so
// config and wire validation can reject absurd values.
const fcMaxCredits = 1 << 20

// CreditConfig is a receiver's advertised VC0 credit pool, per class.
// Zero for any field means infinite credits for that counter; the zero
// value as a whole selects the legacy non-FC link (see package
// comment). Header credits count TLPs; data credits count 16-byte
// payload units.
type CreditConfig struct {
	PostedHdr     int `json:"posted_hdr,omitempty"`
	PostedData    int `json:"posted_data,omitempty"`
	NonPostedHdr  int `json:"nonposted_hdr,omitempty"`
	NonPostedData int `json:"nonposted_data,omitempty"`
	CplHdr        int `json:"cpl_hdr,omitempty"`
	CplData       int `json:"cpl_data,omitempty"`
}

// Finite reports whether any counter is finite, i.e. whether the
// config enables credit-based flow control at all.
func (c CreditConfig) Finite() bool { return c != CreditConfig{} }

// Hdr returns the advertised header credits for a class (0 = infinite).
func (c CreditConfig) Hdr(cl FCClass) int {
	switch cl {
	case FCPosted:
		return c.PostedHdr
	case FCNonPosted:
		return c.NonPostedHdr
	default:
		return c.CplHdr
	}
}

// Data returns the advertised data credits for a class (0 = infinite).
func (c CreditConfig) Data(cl FCClass) int {
	switch cl {
	case FCPosted:
		return c.PostedData
	case FCNonPosted:
		return c.NonPostedData
	default:
		return c.CplData
	}
}

// Validate rejects negative or absurdly large credit counts.
func (c CreditConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"posted_hdr", c.PostedHdr}, {"posted_data", c.PostedData},
		{"nonposted_hdr", c.NonPostedHdr}, {"nonposted_data", c.NonPostedData},
		{"cpl_hdr", c.CplHdr}, {"cpl_data", c.CplData},
	} {
		if f.v < 0 || f.v > fcMaxCredits {
			return fmt.Errorf("pcie: credit %s=%d outside 0..%d", f.name, f.v, fcMaxCredits)
		}
	}
	return nil
}

func (c CreditConfig) String() string {
	if !c.Finite() {
		return "infinite"
	}
	if u, ok := c.uniform(); ok {
		return strconv.Itoa(u)
	}
	return fmt.Sprintf("ph=%d,pd=%d,nh=%d,nd=%d,ch=%d,cd=%d",
		c.PostedHdr, c.PostedData, c.NonPostedHdr, c.NonPostedData, c.CplHdr, c.CplData)
}

// uniform reports whether c is exactly UniformCredits(n) for some n.
func (c CreditConfig) uniform() (int, bool) {
	n := c.PostedHdr
	if n > 0 && c == UniformCredits(n) {
		return n, true
	}
	return 0, false
}

// UniformCredits advertises n header credits per class, with data
// credits sized so header credits are the binding constraint for
// 64-byte payloads (4 data credits per header).
func UniformCredits(n int) CreditConfig {
	return CreditConfig{
		PostedHdr: n, PostedData: 4 * n,
		NonPostedHdr: n, NonPostedData: 4 * n,
		CplHdr: n, CplData: 4 * n,
	}
}

// CreditsForQueueDepth derives the credits a receiver with depth-entry
// ingress queues can honestly advertise: depth headers per class, with
// data credits for depth maximum-sized (64-byte) payloads.
func CreditsForQueueDepth(depth int) CreditConfig {
	if depth <= 0 {
		return CreditConfig{}
	}
	return UniformCredits(depth)
}

// MinCredits combines two advertisements per counter, treating 0 as
// infinite: the result is finite wherever either input is.
func MinCredits(a, b CreditConfig) CreditConfig {
	m := func(x, y int) int {
		if x == 0 {
			return y
		}
		if y == 0 || x < y {
			return x
		}
		return y
	}
	return CreditConfig{
		PostedHdr: m(a.PostedHdr, b.PostedHdr), PostedData: m(a.PostedData, b.PostedData),
		NonPostedHdr: m(a.NonPostedHdr, b.NonPostedHdr), NonPostedData: m(a.NonPostedData, b.NonPostedData),
		CplHdr: m(a.CplHdr, b.CplHdr), CplData: m(a.CplData, b.CplData),
	}
}

// ParseCredits parses the CLI/topo credit syntax: "" or "inf" for
// infinite (legacy), a bare integer N for UniformCredits(N), or a
// comma-separated k=v list with keys ph, pd, nh, nd, ch, cd (unset
// keys stay infinite), e.g. "ch=4" or "ph=8,nh=8,ch=2,cd=8".
func ParseCredits(s string) (CreditConfig, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "inf" || s == "infinite" {
		return CreditConfig{}, nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n < 0 || n > fcMaxCredits {
			return CreditConfig{}, fmt.Errorf("pcie: credits %d outside 0..%d", n, fcMaxCredits)
		}
		if n == 0 {
			return CreditConfig{}, nil
		}
		return UniformCredits(n), nil
	}
	var c CreditConfig
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return CreditConfig{}, fmt.Errorf("pcie: bad credit field %q (want k=v)", kv)
		}
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			return CreditConfig{}, fmt.Errorf("pcie: bad credit count %q: %v", v, err)
		}
		var dst *int
		switch strings.TrimSpace(k) {
		case "ph":
			dst = &c.PostedHdr
		case "pd":
			dst = &c.PostedData
		case "nh":
			dst = &c.NonPostedHdr
		case "nd":
			dst = &c.NonPostedData
		case "ch":
			dst = &c.CplHdr
		case "cd":
			dst = &c.CplData
		default:
			return CreditConfig{}, fmt.Errorf("pcie: unknown credit key %q (want ph|pd|nh|nd|ch|cd)", k)
		}
		*dst = n
	}
	if err := c.Validate(); err != nil {
		return CreditConfig{}, err
	}
	return c, nil
}

// fcPair is one class's header+data credit pair.
type fcPair struct{ hdr, data uint64 }

// fcRefreshMax bounds how many times the refresh timer re-advertises
// the current cumulative grant after the last credit release. It only
// runs under an active fault plan (UpdateFC loss is only possible
// there) and the bound keeps the event queue drainable.
const fcRefreshMax = 3

// fcState is the transaction-layer flow-control state of one link
// interface: the transmit-side view of the peer's credits, and the
// receive-side pool advertised to the peer. It exists only on links
// with a finite CreditConfig.
type fcState struct {
	i *Interface

	// --- transmit side (consuming the peer's credits) ---

	peerSeen  [fcNumClasses]bool // got any InitFC/UpdateFC for the class
	peerAll   bool               // all classes seen: TLP transmission unlocked
	init2Seen bool               // peer confirmed our InitFC1 (FC_INIT2 exit)
	txInf     [fcNumClasses][2]bool
	txLimit   [fcNumClasses]fcPair // cumulative credits granted by the peer
	consumed  [fcNumClasses]fcPair // cumulative credits consumed
	// A stall episode opens on the first starved admission of a class
	// and closes when wake finds it transmittable again; stallSince is
	// meaningful only while stalled (a stall can begin at tick 0).
	stalled    [fcNumClasses]bool
	stallSince [fcNumClasses]sim.Tick
	// stallID remembers the TLP that opened the episode, keying the
	// fc-stall attribution span.
	stallID [fcNumClasses]uint64

	// --- receive side (the pool we advertise) ---

	advert  [fcNumClasses]fcPair // advertised pool size (0 = infinite)
	held    [fcNumClasses]fcPair // credits held by queued, undelivered TLPs
	granted [fcNumClasses]fcPair // cumulative credits granted to the peer
	reqQ    []*mem.Packet        // Posted + Non-Posted, in arrival order
	cplQ    []*mem.Packet        // Completions: may pass blocked requests

	// --- DLLP scheduling ---

	pendInit1 [fcNumClasses]bool
	pendInit2 [fcNumClasses]bool
	pendUpd   [fcNumClasses]bool

	initTmr     *sim.Event // re-sends InitFC1 until the peer confirms
	refreshTmr  *sim.Event // re-advertises grants under a fault plan
	refreshLeft int

	heldGauge [fcNumClasses]*stats.Gauge
	rxqGauge  *stats.Gauge
	stallHist [fcNumClasses]*stats.Histogram
}

// newFCState allocates FC state advertising adv, with every InitFC1
// pending so the handshake starts as soon as the engine runs.
func newFCState(i *Interface, adv CreditConfig) *fcState {
	fc := &fcState{i: i}
	fc.setAdvertised(adv)
	for cl := range fc.pendInit1 {
		fc.pendInit1[cl] = true
	}
	fc.initTmr = i.eng.NewEvent(i.name+".fcInitTimer", fc.initTimerFire)
	fc.refreshTmr = i.eng.NewEvent(i.name+".fcRefreshTimer", fc.refreshFire)
	return fc
}

// setAdvertised installs the receive-side pool. Finite data credits
// are raised to at least one max-payload TLP so a legal TLP can never
// exceed the whole pool and wedge the link.
func (fc *fcState) setAdvertised(adv CreditConfig) {
	minData := fcDataCredits(fc.i.link.cfg.MaxPayload)
	for cl := FCClass(0); cl < fcNumClasses; cl++ {
		hdr, data := uint64(adv.Hdr(cl)), uint64(adv.Data(cl))
		if data > 0 && data < minData {
			data = minData
		}
		fc.advert[cl] = fcPair{hdr: hdr, data: data}
		// Counts on the wire are cumulative; the initial grant is the
		// pool itself.
		fc.granted[cl] = fc.advert[cl]
	}
}

// AdvertiseCredits replaces the receive-side credit pool this
// interface advertises, overriding the LinkConfig default. Routers
// call it at connect time to advertise their real queue depths. It is
// a no-op on legacy (infinite-credit) links and must not be called
// after the engine has started delivering traffic.
func (i *Interface) AdvertiseCredits(c CreditConfig) {
	if i.fc == nil {
		return
	}
	i.fc.setAdvertised(c)
}

// FCSnapshot is a debug/test view of one class's credit accounting.
type FCSnapshot struct {
	AdvertHdr, AdvertData     uint64 // advertised pool (0 = infinite)
	HeldHdr, HeldData         uint64 // held by queued undelivered TLPs
	GrantedHdr, GrantedData   uint64 // cumulative granted to the peer
	ConsumedHdr, ConsumedData uint64 // cumulative consumed from the peer
	LimitHdr, LimitData       uint64 // cumulative limit granted by the peer
}

// FCSnapshots returns per-class credit accounting for tests; nil on
// legacy links.
func (i *Interface) FCSnapshots() []FCSnapshot {
	if i.fc == nil {
		return nil
	}
	out := make([]FCSnapshot, fcNumClasses)
	for cl := FCClass(0); cl < fcNumClasses; cl++ {
		out[cl] = FCSnapshot{
			AdvertHdr: i.fc.advert[cl].hdr, AdvertData: i.fc.advert[cl].data,
			HeldHdr: i.fc.held[cl].hdr, HeldData: i.fc.held[cl].data,
			GrantedHdr: i.fc.granted[cl].hdr, GrantedData: i.fc.granted[cl].data,
			ConsumedHdr: i.fc.consumed[cl].hdr, ConsumedData: i.fc.consumed[cl].data,
			LimitHdr: i.fc.txLimit[cl].hdr, LimitData: i.fc.txLimit[cl].data,
		}
	}
	return out
}

// registerStats publishes the FC-only registry entries. Called only on
// FC links, so legacy stats dumps are byte-identical.
func (fc *fcState) registerStats() {
	r := fc.i.eng.Stats()
	pfx := "pcie." + fc.i.name + ".fc."
	s := &fc.i.stats
	for _, c := range []struct {
		name string
		f    *uint64
	}{
		{"initfc_tx", &s.InitFCTx},
		{"initfc_rx", &s.InitFCRx},
		{"updatefc_tx", &s.UpdateFCTx},
		{"updatefc_rx", &s.UpdateFCRx},
		{"updatefc_dropped", &s.UpdateFCDropped},
		{"stalls_p", &s.FCStallsP},
		{"stalls_np", &s.FCStallsNP},
		{"stalls_cpl", &s.FCStallsCpl},
		{"rx_queued", &s.RxQueued},
		{"rx_refused", &s.RxRefused},
		{"rx_flushed", &s.RxFlushed},
	} {
		f := c.f
		r.CounterFunc(pfx+c.name, func() uint64 { return *f })
	}
	for cl := FCClass(0); cl < fcNumClasses; cl++ {
		low := strings.ToLower(cl.String())
		fc.heldGauge[cl] = r.Gauge(pfx + "held_" + low)
		fc.stallHist[cl] = r.Histogram(pfx + "stall_ticks_" + low)
	}
	fc.rxqGauge = r.Gauge(pfx + "rxq")
}

// --- transmit side --------------------------------------------------

// stallCounter returns the per-class stall counter.
func (fc *fcState) stallCounter(cl FCClass) *uint64 {
	switch cl {
	case FCPosted:
		return &fc.i.stats.FCStallsP
	case FCNonPosted:
		return &fc.i.stats.FCStallsNP
	default:
		return &fc.i.stats.FCStallsCpl
	}
}

// txReady reports whether the peer has granted enough credits for one
// TLP of class cl with the given data-credit need.
func (fc *fcState) txReady(cl FCClass, data uint64) bool {
	if !fc.peerAll {
		return false
	}
	if !fc.txInf[cl][0] && fc.consumed[cl].hdr+1 > fc.txLimit[cl].hdr {
		return false
	}
	if data > 0 && !fc.txInf[cl][1] && fc.consumed[cl].data+data > fc.txLimit[cl].data {
		return false
	}
	return true
}

// consume charges one header and data credits for an admitted TLP.
// Credits are consumed exactly once, at admission: DLL replays resend
// the same TLP against the same charge.
func (fc *fcState) consume(cl FCClass, data uint64) {
	fc.consumed[cl].hdr++
	fc.consumed[cl].data += data
}

// noteStall records a credit-starvation refusal of one TLP.
func (fc *fcState) noteStall(cl FCClass, tlp *mem.Packet) {
	*fc.stallCounter(cl)++
	now := fc.i.eng.Now()
	if !fc.stalled[cl] {
		fc.stalled[cl] = true
		fc.stallSince[cl] = now
		fc.stallID[cl] = tlp.ID
	}
	if tr := fc.i.tracer(); tr.On(trace.CatTLP) {
		tr.Emit(trace.CatTLP, uint64(now), "pcie."+fc.i.name, "fc-stall", tlp.ID, cl.String())
	}
}

// wake ends stall episodes whose class can transmit again and retries
// the local component. Called after any credit grant arrives.
func (fc *fcState) wake() {
	now := fc.i.eng.Now()
	woke := false
	for cl := FCClass(0); cl < fcNumClasses; cl++ {
		if fc.stalled[cl] && fc.txReady(cl, 0) {
			fc.stallHist[cl].Observe(uint64(now - fc.stallSince[cl]))
			if eng := fc.i.eng; eng.SpansOn() {
				fc.i.spanObserve(&fc.i.fcStallSeg, "fc-stall", fc.stallSince[cl], fc.stallID[cl])
			}
			fc.stalled[cl] = false
			woke = true
		}
	}
	if woke {
		fc.i.notifyLocalRetry()
	}
}

// --- receive side ---------------------------------------------------

// advertFinite reports whether any counter of the class is finite (and
// therefore worth an UpdateFC when credits free).
func (fc *fcState) advertFinite(cl FCClass) bool {
	return fc.advert[cl].hdr > 0 || fc.advert[cl].data > 0
}

// rxAccept queues a delivered-at-DLL TLP at the transaction layer,
// holding its credits until the local component takes it. Completions
// queue separately from requests so a completion can always pass a
// blocked non-posted request (the PCIe ordering rule that breaks the
// classic fabric deadlock), while NP never passes P within reqQ.
func (fc *fcState) rxAccept(tlp *mem.Packet) {
	cl := FCClassOf(tlp)
	fc.held[cl].hdr++
	fc.held[cl].data += fcDataCredits(tlpPayloadBytes(tlp))
	fc.i.stats.RxQueued++
	if cl == FCCpl {
		fc.cplQ = append(fc.cplQ, tlp)
	} else {
		fc.reqQ = append(fc.reqQ, tlp)
	}
	fc.updateRxGauges()
	fc.drain()
}

// drain hands queued TLPs to the local component, completions first,
// releasing credits as each is accepted. A refusal leaves the TLP
// queued — refusal/retry survives only at this mem-port boundary.
func (fc *fcState) drain() {
	i := fc.i
	for len(fc.cplQ) > 0 {
		tlp := fc.cplQ[0]
		// Credit need is computed before the handover: the component
		// may mutate (or recycle) the packet once it accepts it.
		data := fcDataCredits(tlpPayloadBytes(tlp))
		id := tlp.ID
		if !i.slave.SendTimingResp(tlp) {
			i.stats.RxRefused++
			break
		}
		popFront(&fc.cplQ)
		fc.delivered(FCCpl, data, id)
	}
	for len(fc.reqQ) > 0 {
		tlp := fc.reqQ[0]
		cl := FCClassOf(tlp)
		data := fcDataCredits(tlpPayloadBytes(tlp))
		id := tlp.ID
		if !i.master.SendTimingReq(tlp) {
			i.stats.RxRefused++
			break
		}
		popFront(&fc.reqQ)
		fc.delivered(cl, data, id)
	}
	fc.updateRxGauges()
}

// delivered finalizes one handover to the local component.
func (fc *fcState) delivered(cl FCClass, data uint64, id uint64) {
	i := fc.i
	i.stats.TLPsDelivered++
	if tr := i.tracer(); tr.On(trace.CatTLP) {
		tr.Emit(trace.CatTLP, uint64(i.eng.Now()), "pcie."+i.name,
			"deliver", id, cl.String())
	}
	fc.release(cl, data)
}

// release returns one TLP's credits to the pool and schedules an
// UpdateFC for the class if any of its counters is finite.
func (fc *fcState) release(cl FCClass, data uint64) {
	if fc.held[cl].hdr == 0 || fc.held[cl].data < data {
		panic("pcie: flow-control credit accounting underflow")
	}
	fc.held[cl].hdr--
	fc.held[cl].data -= data
	fc.granted[cl].hdr++
	fc.granted[cl].data += data
	if fc.advertFinite(cl) {
		fc.pendUpd[cl] = true
		if fc.i.link.planActive {
			fc.refreshLeft = fcRefreshMax
			if !fc.refreshTmr.Scheduled() {
				fc.i.eng.ScheduleEventAfter(fc.refreshTmr, fc.i.link.ReplayTimeout(), sim.PriorityTimer)
			}
		}
		fc.i.scheduleTx()
	}
}

func (fc *fcState) updateRxGauges() {
	for cl := FCClass(0); cl < fcNumClasses; cl++ {
		fc.heldGauge[cl].Set(int64(fc.held[cl].hdr))
	}
	fc.rxqGauge.Set(int64(len(fc.reqQ) + len(fc.cplQ)))
}

// --- DLLP exchange --------------------------------------------------

// dllpPending reports whether any FC DLLP is waiting for the wire.
func (fc *fcState) dllpPending() bool {
	for cl := range fc.pendInit1 {
		if fc.pendInit1[cl] || fc.pendInit2[cl] || fc.pendUpd[cl] {
			return true
		}
	}
	return false
}

// grantValues returns the cumulative counts an FC DLLP for cl carries;
// infinite counters are encoded as 0.
func (fc *fcState) grantValues(cl FCClass) (hdr, data uint64) {
	if fc.advert[cl].hdr > 0 {
		hdr = fc.granted[cl].hdr
	}
	if fc.advert[cl].data > 0 {
		data = fc.granted[cl].data
	}
	return hdr, data
}

// initPending reports whether an InitFC1/InitFC2 DLLP is waiting.
func (fc *fcState) initPending() bool {
	for cl := range fc.pendInit1 {
		if fc.pendInit1[cl] || fc.pendInit2[cl] {
			return true
		}
	}
	return false
}

// updPending reports whether an UpdateFC DLLP is waiting.
func (fc *fcState) updPending() bool {
	return fc.pendUpd[0] || fc.pendUpd[1] || fc.pendUpd[2]
}

// buildDLLP assembles one FC DLLP for cl with the current grants. It
// returns by value: the transmitter copies it into a wire flight.
func (fc *fcState) buildDLLP(kind PktKind, cl FCClass) PciePkt {
	hdr, data := fc.grantValues(cl)
	return PciePkt{Kind: kind, FCCl: cl, FCHdr: hdr, FCData: data}
}

// nextInitDLLP dequeues the next pending InitFC1/InitFC2; it must only
// be called when initPending() is true.
func (fc *fcState) nextInitDLLP() PciePkt {
	for cl := range fc.pendInit1 {
		if fc.pendInit1[cl] {
			fc.pendInit1[cl] = false
			// Until the peer confirms with InitFC2/UpdateFC, keep
			// re-sending InitFC1 — the handshake survives DLLP loss.
			if !fc.init2Seen && !fc.initTmr.Scheduled() {
				fc.i.eng.ScheduleEventAfter(fc.initTmr, fc.i.link.ReplayTimeout(), sim.PriorityTimer)
			}
			return fc.buildDLLP(KindInitFC1, FCClass(cl))
		}
	}
	for cl := range fc.pendInit2 {
		if fc.pendInit2[cl] {
			fc.pendInit2[cl] = false
			return fc.buildDLLP(KindInitFC2, FCClass(cl))
		}
	}
	panic("pcie: nextInitDLLP with none pending")
}

// nextUpdDLLP dequeues the next pending UpdateFC; it must only be
// called when updPending() is true.
func (fc *fcState) nextUpdDLLP() PciePkt {
	for cl := range fc.pendUpd {
		if fc.pendUpd[cl] {
			fc.pendUpd[cl] = false
			return fc.buildDLLP(KindUpdateFC, FCClass(cl))
		}
	}
	panic("pcie: nextUpdDLLP with none pending")
}

// recvFC processes a received InitFC/UpdateFC DLLP: record the peer's
// cumulative grant (monotonic max, so stale DLLPs are harmless), run
// the init handshake state machine, and wake stalled classes.
func (fc *fcState) recvFC(pp *PciePkt) {
	i := fc.i
	cl := pp.FCCl
	if pp.Kind == KindUpdateFC {
		i.stats.UpdateFCRx++
	} else {
		i.stats.InitFCRx++
	}
	if tr := i.tracer(); tr.On(trace.CatDLLP) {
		tr.Emit(trace.CatDLLP, uint64(i.eng.Now()), "pcie."+i.name,
			"rx-"+pp.Kind.String(), pp.FCHdr, cl.String())
	}
	if pp.FCHdr == 0 {
		fc.txInf[cl][0] = true
	} else if pp.FCHdr > fc.txLimit[cl].hdr {
		fc.txLimit[cl].hdr = pp.FCHdr
	}
	if pp.FCData == 0 {
		fc.txInf[cl][1] = true
	} else if pp.FCData > fc.txLimit[cl].data {
		fc.txLimit[cl].data = pp.FCData
	}
	if !fc.peerSeen[cl] {
		fc.peerSeen[cl] = true
		fc.peerAll = fc.peerSeen[0] && fc.peerSeen[1] && fc.peerSeen[2]
	}
	switch pp.Kind {
	case KindInitFC1:
		// Once we have the peer's full pool, confirm with InitFC2 —
		// again on every duplicate InitFC1, in case ours was lost.
		if fc.peerAll {
			for c := range fc.pendInit2 {
				fc.pendInit2[c] = true
			}
		}
	case KindInitFC2, KindUpdateFC:
		fc.init2Seen = true
		i.eng.Deschedule(fc.initTmr)
	}
	fc.wake()
	i.scheduleTx()
}

// initTimerFire re-arms the InitFC1 volley while the peer has not yet
// confirmed the handshake. It stops permanently once init2Seen, so the
// event queue always drains.
func (fc *fcState) initTimerFire() {
	if fc.init2Seen {
		return
	}
	for cl := range fc.pendInit1 {
		fc.pendInit1[cl] = true
	}
	fc.i.scheduleTx()
	fc.i.eng.ScheduleEventAfter(fc.initTmr, fc.i.link.ReplayTimeout(), sim.PriorityTimer)
}

// refreshFire re-advertises the cumulative grant of every finite class
// a bounded number of times after the last release, recovering credits
// lost to dropped UpdateFC DLLPs. Only armed under an active fault
// plan.
func (fc *fcState) refreshFire() {
	if fc.refreshLeft <= 0 {
		return
	}
	fc.refreshLeft--
	resent := false
	for cl := FCClass(0); cl < fcNumClasses; cl++ {
		if fc.advertFinite(cl) {
			fc.pendUpd[cl] = true
			resent = true
		}
	}
	if resent {
		fc.i.scheduleTx()
	}
	if fc.refreshLeft > 0 {
		fc.i.eng.ScheduleEventAfter(fc.refreshTmr, fc.i.link.ReplayTimeout(), sim.PriorityTimer)
	}
}

// noteUpdDropped restocks the refresh budget after a fault-injected
// UpdateFC drop. The drop is local knowledge (injection happens at this
// interface's transmitter), so retrying here keeps a starvation window
// recoverable however long it lasts, while a clean run still stops
// after fcRefreshMax refreshes and the event queue drains.
func (fc *fcState) noteUpdDropped() {
	fc.refreshLeft = fcRefreshMax
	if !fc.refreshTmr.Scheduled() {
		fc.i.eng.ScheduleEventAfter(fc.refreshTmr, fc.i.link.ReplayTimeout(), sim.PriorityTimer)
	}
}

// pause deschedules the FC timers for a link-down window.
func (fc *fcState) pause() {
	fc.i.eng.Deschedule(fc.initTmr)
	fc.i.eng.Deschedule(fc.refreshTmr)
}

// resume re-initializes FC after a retrain. Per the spec's DL_Down
// rule, flow control restarts from scratch on every link-down: both
// sides forget the old cumulative counts and re-run the
// InitFC1/InitFC2 handshake. The subtlety is that TL state survives
// the window — TLPs may still sit in this side's RX queues (holding
// credits) and unACKed TLPs in the local replay buffer will replay
// into the peer's pools — so the new epoch's counters are rebuilt to
// account for them exactly:
//
//   - receive side: the full pool is re-granted (granted = advert),
//     exactly as at first init; space taken by still-queued TLPs is
//     charged to the peer's rebuilt consumed counts instead;
//   - transmit side: consumed restarts at the credits of our TLPs
//     already held in the peer's RX queues plus those in our replay
//     buffer the peer has not delivered yet (they will replay into
//     the new grant); limits and the init state machine reset.
//
// Both interfaces re-init inside the same goUp event, with no traffic
// in between, so each side reads a stable view of its peer.
func (fc *fcState) resume() {
	peer := fc.i.peer
	// --- transmit side: forget the peer's old cumulative counts.
	fc.peerSeen = [fcNumClasses]bool{}
	fc.peerAll = false
	fc.init2Seen = false
	fc.txInf = [fcNumClasses][2]bool{}
	fc.txLimit = [fcNumClasses]fcPair{}
	var consumed [fcNumClasses]fcPair
	if peer.fc != nil {
		consumed = peer.fc.held
	}
	for _, pp := range fc.i.replayBuf {
		if pp.Seq < peer.recvSeq {
			// Already delivered into the peer's TL queues (counted in
			// peer held, or drained and thus occupying no space); its
			// replay will be discarded as a stale duplicate.
			continue
		}
		cl := FCClassOf(pp.TLP)
		consumed[cl].hdr++
		consumed[cl].data += fcDataCredits(tlpPayloadBytes(pp.TLP))
	}
	fc.consumed = consumed
	// --- receive side: re-grant the full pool, as at first init.
	for cl := FCClass(0); cl < fcNumClasses; cl++ {
		fc.granted[cl] = fc.advert[cl]
	}
	// --- handshake: restart from InitFC1.
	for cl := range fc.pendInit1 {
		fc.pendInit1[cl] = true
	}
	fc.pendInit2 = [fcNumClasses]bool{}
	fc.pendUpd = [fcNumClasses]bool{}
	fc.refreshLeft = 0
}

// flushDead discards the transaction-layer RX queues when the link is
// declared dead, zeroing held credits.
func (fc *fcState) flushDead() {
	fc.i.stats.RxFlushed += uint64(len(fc.reqQ) + len(fc.cplQ))
	fc.reqQ = nil
	fc.cplQ = nil
	for cl := range fc.held {
		fc.held[cl] = fcPair{}
	}
	fc.pendInit1 = [fcNumClasses]bool{}
	fc.pendInit2 = [fcNumClasses]bool{}
	fc.pendUpd = [fcNumClasses]bool{}
	fc.updateRxGauges()
}
