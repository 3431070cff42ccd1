// Package cache implements the gem5 IOCache (§III of the paper): a small
// set-associative cache that sits between the off-chip interconnect and
// the memory bus. It plays two roles in the modeled system: it is the
// coherency point for device DMA, and it is a bandwidth buffer between
// connections of different widths — its MSHR and write-buffer counts
// bound how fast the I/O tree can drain into DRAM, which is one of the
// pressures behind the x8-link congestion the paper studies.
package cache

import (
	"fmt"

	"pciesim/internal/mem"
	"pciesim/internal/sim"
	"pciesim/internal/stats"
)

// Config parameterizes the cache.
type Config struct {
	// Size is the total capacity in bytes (gem5's IOCache default is a
	// small 1 KiB cache).
	Size int
	// LineSize is the cache line size in bytes; DMA engines chunk their
	// transfers to this size.
	LineSize int
	// Assoc is the set associativity.
	Assoc int
	// TagLatency is charged on every access (hit or miss detection).
	TagLatency sim.Tick
	// MSHRs bounds outstanding fetches (read misses / partial-write
	// fills). Further misses are refused until one completes.
	MSHRs int
	// WriteBuffers bounds outstanding writebacks to memory.
	WriteBuffers int
	// Uncacheable lists address ranges that bypass the cache entirely
	// (e.g. an interrupt controller's MSI frame): requests are
	// forwarded to the memory side untouched and their responses
	// returned to the requester.
	Uncacheable mem.RangeList
}

// Default returns the configuration used by the validation experiments:
// a 1 KiB, 4-way cache with 64 B lines, 4 MSHRs and 8 write buffers.
func Default() Config {
	return Config{
		Size:         1024,
		LineSize:     64,
		Assoc:        4,
		TagLatency:   10 * sim.Nanosecond,
		MSHRs:        4,
		WriteBuffers: 8,
	}
}

type line struct {
	tag      uint64
	valid    bool
	dirty    bool
	reserved bool // victim of an in-flight fill; not visible to lookups
	lastUse  uint64
	data     []byte
}

type mshr struct {
	lineAddr uint64
	targets  []*mem.Packet
	victim   *line
	issuedAt sim.Tick // fetch issue time, for the fill-latency histogram
	// fetch is the fill request; its Context is the MSHR itself, and
	// the two are recycled together.
	fetch *mem.Packet
}

// Cache is the IOCache. Requests enter at the cpu-side slave port (from
// the I/O interconnect) and misses/writebacks leave at the mem-side
// master port (to the memory bus).
type Cache struct {
	eng  *sim.Engine
	name string
	cfg  Config

	cpuSide *mem.SlavePort
	memSide *mem.MasterPort

	sets    [][]line
	useTick uint64

	mshrs      map[uint64]*mshr
	writebacks int
	respQ      *mem.SendQueue
	memQ       *mem.SendQueue
	needsRetry bool

	// Stats.
	uncached                 uint64
	hits, misses, fills      uint64
	writebackCount           uint64
	refusedMSHR, refusedWB   uint64
	fullLineWriteAllocations uint64

	mshrGauge *stats.Gauge
	fillLat   *stats.Histogram

	// Free lists private to the cache, never mem.Pool, so the pool's
	// accounting does not move: MSHRs with their fill packets, and
	// writeback packets. Each memory-side trip returns a packet with
	// only its Cmd changed and its route stack popped back to empty.
	mshrFree []*mshr
	wbFree   []*mem.Packet

	// The upstream retry event's name and callback, built once.
	reqretryName string
	reqretryFn   func()
}

type wbToken struct{ c *Cache }
type passToken struct {
	c    *Cache
	orig any
}

// New creates a cache.
func New(eng *sim.Engine, name string, cfg Config) *Cache {
	if cfg.LineSize <= 0 || cfg.Size <= 0 || cfg.Assoc <= 0 {
		panic("cache: invalid geometry")
	}
	nLines := cfg.Size / cfg.LineSize
	if nLines%cfg.Assoc != 0 {
		panic("cache: size/lineSize must be a multiple of assoc")
	}
	nSets := nLines / cfg.Assoc
	c := &Cache{
		eng:   eng,
		name:  name,
		cfg:   cfg,
		sets:  make([][]line, nSets),
		mshrs: make(map[uint64]*mshr),
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Assoc)
	}
	c.cpuSide = mem.NewSlavePort(name+".cpu_side", (*cacheCPUSide)(c))
	c.memSide = mem.NewMasterPort(name+".mem_side", (*cacheMemSide)(c))
	c.respQ = mem.NewSendQueue(eng, name+".respq", 0, func(p *mem.Packet) bool {
		return c.cpuSide.SendTimingResp(p)
	})
	c.memQ = mem.NewSendQueue(eng, name+".memq", 0, func(p *mem.Packet) bool {
		return c.memSide.SendTimingReq(p)
	})
	c.reqretryName = name + ".reqretry"
	c.reqretryFn = c.cpuSide.SendReqRetry
	r := eng.Stats()
	r.CounterFunc(name+".hits", func() uint64 { return c.hits })
	r.CounterFunc(name+".misses", func() uint64 { return c.misses })
	r.CounterFunc(name+".fills", func() uint64 { return c.fills })
	r.CounterFunc(name+".uncached", func() uint64 { return c.uncached })
	r.CounterFunc(name+".writebacks", func() uint64 { return c.writebackCount })
	r.CounterFunc(name+".refused_mshr", func() uint64 { return c.refusedMSHR })
	r.CounterFunc(name+".refused_wb", func() uint64 { return c.refusedWB })
	r.CounterFunc(name+".full_line_write_allocs", func() uint64 { return c.fullLineWriteAllocations })
	c.mshrGauge = r.Gauge(name + ".mshrs")
	c.fillLat = r.Histogram(name + ".fill_latency")
	return c
}

// CPUSidePort returns the slave port facing the I/O interconnect.
func (c *Cache) CPUSidePort() *mem.SlavePort { return c.cpuSide }

// MemSidePort returns the master port facing the memory bus.
func (c *Cache) MemSidePort() *mem.MasterPort { return c.memSide }

// Stats returns (hits, misses, writebacks, refusals-for-MSHR,
// refusals-for-write-buffer).
func (c *Cache) Stats() (hits, misses, writebacks, refusedMSHR, refusedWB uint64) {
	return c.hits, c.misses, c.writebackCount, c.refusedMSHR, c.refusedWB
}

func (c *Cache) lineAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineSize-1) }
func (c *Cache) setIndex(lineAddr uint64) int {
	return int((lineAddr / uint64(c.cfg.LineSize)) % uint64(len(c.sets)))
}

func (c *Cache) lookup(lineAddr uint64) *line {
	set := c.sets[c.setIndex(lineAddr)]
	for i := range set {
		if set[i].valid && !set[i].reserved && set[i].tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

// victim picks the replacement candidate in the line's set: an invalid,
// unreserved way if one exists, else the LRU way. It returns nil if all
// ways are reserved by in-flight fills.
func (c *Cache) victim(lineAddr uint64) *line {
	set := c.sets[c.setIndex(lineAddr)]
	var lru *line
	for i := range set {
		l := &set[i]
		if l.reserved {
			continue
		}
		if !l.valid {
			return l
		}
		if lru == nil || l.lastUse < lru.lastUse {
			lru = l
		}
	}
	return lru
}

func (c *Cache) touch(l *line) {
	c.useTick++
	l.lastUse = c.useTick
}

// cacheCPUSide adapts Cache to mem.SlaveOwner.
type cacheCPUSide Cache

func (o *cacheCPUSide) c() *Cache { return (*Cache)(o) }

func (o *cacheCPUSide) RecvTimingReq(_ *mem.SlavePort, pkt *mem.Packet) bool {
	c := o.c()
	if c.cfg.Uncacheable.Contains(pkt.Addr) {
		// Pass through untouched; the response (if any) retraces via
		// the wrapped context.
		c.uncached++
		pkt.Context = passToken{c, pkt.Context}
		c.memQ.Push(pkt, c.eng.Now()+c.cfg.TagLatency)
		return true
	}
	la := c.lineAddr(pkt.Addr)
	if c.lineAddr(pkt.Addr+uint64(pkt.Size)-1) != la {
		panic(fmt.Sprintf("cache %s: %v spans a line boundary", c.name, pkt))
	}

	if l := c.lookup(la); l != nil {
		// Hit: merge or copy data, respond after the tag latency.
		c.hits++
		c.touch(l)
		c.access(l, pkt)
		c.respond(pkt)
		return true
	}

	// Miss path. A full-line write allocates in place without a fetch;
	// anything else needs a fill from memory.
	fullLineWrite := pkt.Cmd == mem.WriteReq && int(pkt.Addr-la) == 0 && pkt.Size == c.cfg.LineSize

	if m, ok := c.mshrs[la]; ok {
		// A fill for this line is already in flight; piggyback on it
		// (even a full-line write: installing a second copy of the line
		// in another way would corrupt the cache).
		m.targets = append(m.targets, pkt)
		c.misses++
		return true
	}

	v := c.victim(la)
	if v == nil {
		// Every way is reserved by an outstanding fill.
		c.refusedMSHR++
		c.needsRetry = true
		return false
	}
	needWB := v.valid && v.dirty
	if needWB && c.writebacks >= c.cfg.WriteBuffers {
		c.refusedWB++
		c.needsRetry = true
		return false
	}

	if fullLineWrite {
		c.misses++
		c.fullLineWriteAllocations++
		if needWB {
			c.issueWriteback(v)
		}
		c.install(v, la)
		v.dirty = true
		c.access(v, pkt)
		c.respond(pkt)
		return true
	}

	if len(c.mshrs) >= c.cfg.MSHRs {
		c.refusedMSHR++
		c.needsRetry = true
		return false
	}
	c.misses++
	if needWB {
		c.issueWriteback(v)
	}
	// Reserve the victim way so concurrent misses cannot claim it.
	v.valid = false
	v.dirty = false
	v.reserved = true
	m := c.newMSHR(la)
	m.targets = append(m.targets, pkt)
	m.victim = v
	m.issuedAt = c.eng.Now()
	c.mshrs[la] = m
	c.mshrGauge.Set(int64(len(c.mshrs)))
	c.memQ.Push(m.fetch, c.eng.Now()+c.cfg.TagLatency)
	return true
}

// newMSHR takes a free MSHR, or allocates one, with its fill request
// aimed at lineAddr.
func (c *Cache) newMSHR(lineAddr uint64) *mshr {
	if n := len(c.mshrFree); n > 0 {
		m := c.mshrFree[n-1]
		c.mshrFree[n-1] = nil
		c.mshrFree = c.mshrFree[:n-1]
		m.lineAddr = lineAddr
		m.fetch.Cmd, m.fetch.Addr = mem.ReadReq, lineAddr
		return m
	}
	m := &mshr{lineAddr: lineAddr, fetch: mem.NewPacket(mem.ReadReq, lineAddr, c.cfg.LineSize)}
	m.fetch.Data = make([]byte, c.cfg.LineSize)
	m.fetch.Context = m
	return m
}

func (o *cacheCPUSide) RecvRespRetry(*mem.SlavePort) { o.c().respQ.RetryReceived() }

// AddrRanges: the IOCache is transparent; it claims nothing itself and
// is wired point-to-point (RC upstream → cache → membus).
func (o *cacheCPUSide) AddrRanges(*mem.SlavePort) mem.RangeList { return nil }

// respond completes a request after the tag latency; posted writes are
// consumed without a completion (the transaction ends at the coherency
// point).
func (c *Cache) respond(pkt *mem.Packet) {
	if pkt.Posted {
		pkt.Release()
		return
	}
	c.respQ.Push(pkt.MakeResponse(), c.eng.Now()+c.cfg.TagLatency)
}

// access applies the packet to a resident line: writes mark it dirty and
// merge payload bytes; reads copy resident bytes out when the packet
// wants data.
func (c *Cache) access(l *line, pkt *mem.Packet) {
	off := int(pkt.Addr - l.tag)
	switch pkt.Cmd {
	case mem.WriteReq:
		l.dirty = true
		if pkt.Data != nil {
			c.ensureData(l)
			copy(l.data[off:], pkt.Data[:pkt.Size])
		}
	case mem.ReadReq:
		if pkt.Data != nil {
			c.ensureData(l)
			copy(pkt.Data[:pkt.Size], l.data[off:])
		}
	}
}

func (c *Cache) ensureData(l *line) {
	if l.data == nil {
		l.data = make([]byte, c.cfg.LineSize)
	}
}

func (c *Cache) install(l *line, lineAddr uint64) {
	l.tag = lineAddr
	l.valid = true
	l.dirty = false
	l.reserved = false
	if l.data != nil {
		for i := range l.data {
			l.data[i] = 0
		}
	}
	c.touch(l)
}

func (c *Cache) issueWriteback(v *line) {
	c.writebacks++
	c.writebackCount++
	var wb *mem.Packet
	if n := len(c.wbFree); n > 0 {
		wb = c.wbFree[n-1]
		c.wbFree[n-1] = nil
		c.wbFree = c.wbFree[:n-1]
		wb.Cmd, wb.Addr = mem.WriteReq, v.tag
	} else {
		wb = mem.NewPacket(mem.WriteReq, v.tag, c.cfg.LineSize)
		wb.Context = wbToken{c}
	}
	if v.data == nil {
		wb.Data = nil
	} else {
		wb.Data = append(wb.Data[:0], v.data...)
	}
	c.memQ.Push(wb, c.eng.Now()+c.cfg.TagLatency)
	v.valid = false
	v.dirty = false
}

// retryIfNeeded wakes the refused upstream sender once a resource frees.
func (c *Cache) retryIfNeeded() {
	if !c.needsRetry {
		return
	}
	c.needsRetry = false
	c.eng.ScheduleAt(c.reqretryName, c.eng.Now(), sim.PriorityRetry, c.reqretryFn)
}

// cacheMemSide adapts Cache to mem.MasterOwner.
type cacheMemSide Cache

func (o *cacheMemSide) c() *Cache { return (*Cache)(o) }

func (o *cacheMemSide) RecvTimingResp(_ *mem.MasterPort, pkt *mem.Packet) bool {
	c := o.c()
	switch tok := pkt.Context.(type) {
	case wbToken:
		c.writebacks--
		c.wbFree = append(c.wbFree, pkt)
		c.retryIfNeeded()
		return true
	case passToken:
		pkt.Context = tok.orig
		c.respQ.Push(pkt, c.eng.Now())
		return true
	case *mshr:
		m := tok
		delete(c.mshrs, m.lineAddr)
		c.mshrGauge.Set(int64(len(c.mshrs)))
		c.fillLat.Observe(uint64(c.eng.Now() - m.issuedAt))
		l := m.victim
		c.install(l, m.lineAddr)
		if pkt.Data != nil {
			c.ensureData(l)
			copy(l.data, pkt.Data)
		}
		c.fills++
		for _, target := range m.targets {
			c.access(l, target)
			if target.Posted {
				target.Release()
				continue
			}
			c.respQ.Push(target.MakeResponse(), c.eng.Now())
		}
		clear(m.targets)
		m.targets = m.targets[:0]
		m.victim = nil
		c.mshrFree = append(c.mshrFree, m)
		c.retryIfNeeded()
		return true
	default:
		panic(fmt.Sprintf("cache %s: response %v with unknown context %T", c.name, pkt, pkt.Context))
	}
}

func (o *cacheMemSide) RecvReqRetry(*mem.MasterPort) { o.c().memQ.RetryReceived() }
