package topo

import (
	"fmt"
	"sort"

	"pciesim/internal/pcie"
	"pciesim/internal/sim"
)

// Timing-domain partitioning for the parallel engine.
//
// The fabric is cut at link boundaries: each cut link's two interfaces
// run on different engines, and every wire crossing carries at least
// one DLLP serialization plus the link's propagation delay — the
// conservative lookahead the coordinator's quantum is derived from.
// Domain 0 is the root domain (CPU, kernel, root complex, and every
// pinned subtree); domains 1..D-1 are the cut-off subtrees.
//
// Pinning. Anything that mutates state across a link from timer events
// or reaches the CPU synchronously must stay in the root domain:
//
//   - links with a fault plan (spec or Config.Faults) or
//     a per-link degradation policy — the link-down/retrain/hotplug
//     machinery mutates both interfaces from one timer;
//   - NIC endpoints when MSI is enabled — the doorbell is a posted
//     write straight onto the root's memory bus;
//   - disk endpoints with posted DMA writes — completion is reported
//     device-side without a round trip, so the write must land on the
//     root's substrate in the same domain.
//
// Platform-wide Degrade or DPC, and a zero IRQLatency, disable
// partitioning entirely (the build falls back to the serial engine).
type partition struct {
	// domains is the engine count D; 1 means serial.
	domains int
	// domOf maps every spec node to its domain; missing means 0.
	domOf map[*Node]int
	// quantum is the conservative synchronization window: the minimum
	// over cut links of DLLP wire time + propagation delay, floored by
	// the IRQ dispatch latency (the shortest device→CPU crossing).
	quantum sim.Tick
}

// pinnedNode reports whether n itself must run in the root domain.
func pinnedNode(n *Node, cfg Config) bool {
	switch n.Kind {
	case KindNIC:
		if cfg.EnableMSI {
			return true
		}
	case KindDisk:
		if cfg.Disk.PostedWrites {
			return true
		}
	}
	l := n.Link
	if l.Fault != nil || l.Degrade != nil {
		return true
	}
	return cfg.Faults[l.Name] != nil
}

// subtreePinned reports whether any node under (and including) n is
// pinned — such a subtree cannot be cut off as a unit.
func subtreePinned(n *Node, cfg Config) bool {
	if n == nil {
		return false
	}
	if pinnedNode(n, cfg) {
		return true
	}
	for _, c := range n.Ports {
		if subtreePinned(c, cfg) {
			return true
		}
	}
	return false
}

// partitionSpec assigns every node a timing domain. cfg.Domains <= 1
// always yields the serial partition; configurations the parallel
// engine cannot express (platform-wide degradation, DPC, zero IRQ
// latency) silently fall back to serial so every spec keeps running.
// Explicit :d annotations are validated (and rejected on pinned
// subtrees); with none present, the partitioner cuts maximal pin-free
// subtrees and balances them over the worker domains.
func partitionSpec(spec *Spec, cfg Config) (*partition, error) {
	serial := &partition{domains: 1}
	n := cfg.Domains
	if n <= 1 {
		return serial, nil
	}
	if cfg.Degrade != nil || cfg.EnableDPC || cfg.IRQLatency == 0 {
		return serial, nil
	}

	explicit := false
	spec.walk(func(nd *Node) {
		if nd.Dom != 0 {
			explicit = true
		}
	})

	domOf := map[*Node]int{}
	domains := 1
	if explicit {
		var err error
		var rec func(nd *Node, cur int)
		rec = func(nd *Node, cur int) {
			if nd == nil || err != nil {
				return
			}
			if nd.Dom != 0 {
				if nd.Dom >= n {
					err = fmt.Errorf("topo: node %q assigned domain %d, but -par %d only has domains 0..%d",
						nd.Name, nd.Dom, n, n-1)
					return
				}
				cur = nd.Dom
			}
			if cur != 0 && pinnedNode(nd, cfg) {
				err = fmt.Errorf("topo: node %q cannot run in domain %d: faulted, degradable, or posted-path nodes must stay in the root domain",
					nd.Name, cur)
				return
			}
			domOf[nd] = cur
			if cur+1 > domains {
				domains = cur + 1
			}
			for _, c := range nd.Ports {
				rec(c, cur)
			}
		}
		for _, rp := range spec.RootPorts {
			rec(rp, 0)
		}
		if err != nil {
			return nil, err
		}
	} else {
		// Auto: collect maximal pin-free subtrees as balance units.
		var units []*Node
		var collect func(nd *Node)
		collect = func(nd *Node) {
			if nd == nil {
				return
			}
			if !subtreePinned(nd, cfg) {
				units = append(units, nd)
				return
			}
			// The pinned node stays in the root domain; its pin-free
			// child subtrees can still be cut off below it.
			for _, c := range nd.Ports {
				collect(c)
			}
		}
		for _, rp := range spec.RootPorts {
			collect(rp)
		}

		// Refinement: with fewer units than worker domains, split the
		// largest splittable unit — the switch at its root joins the
		// parent's (root) domain and each child subtree becomes a unit
		// of its own. fanout8 at -par 4 goes from one 8-disk unit to
		// eight single-disk units this way.
		bins := n - 1
		for len(units) < bins {
			best := -1
			for i, u := range units {
				if u.Kind != KindSwitch {
					continue
				}
				kids := 0
				for _, c := range u.Ports {
					if c != nil {
						kids++
					}
				}
				if kids < 2 {
					continue
				}
				if best == -1 || countSubtree(u) > countSubtree(units[best]) {
					best = i
				}
			}
			if best == -1 {
				break
			}
			u := units[best]
			split := make([]*Node, 0, len(units)+len(u.Ports)-1)
			split = append(split, units[:best]...)
			for _, c := range u.Ports {
				if c != nil {
					split = append(split, c)
				}
			}
			split = append(split, units[best+1:]...)
			units = split
		}
		if len(units) == 0 {
			return serial, nil
		}

		// LPT: heaviest unit first into the least-loaded worker domain.
		// Ties keep DFS order (units) and the lowest domain index, so
		// the assignment is deterministic.
		k := bins
		if len(units) < k {
			k = len(units)
		}
		order := make([]int, len(units))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return countSubtree(units[order[a]]) > countSubtree(units[order[b]])
		})
		load := make([]int, k)
		assign := make(map[*Node]int, len(units))
		for _, ui := range order {
			bin := 0
			for b := 1; b < k; b++ {
				if load[b] < load[bin] {
					bin = b
				}
			}
			load[bin] += countSubtree(units[ui])
			assign[units[ui]] = bin + 1
		}
		var mark func(nd *Node, d int)
		mark = func(nd *Node, d int) {
			if nd == nil {
				return
			}
			domOf[nd] = d
			for _, c := range nd.Ports {
				mark(c, d)
			}
		}
		for u, d := range assign {
			mark(u, d)
		}
		domains = k + 1
	}
	if domains <= 1 {
		return serial, nil
	}

	// Quantum: the smallest latency any event can cross a domain
	// boundary with. Over the cut links that is one DLLP's wire time
	// (the shortest packet) plus propagation; the device→CPU interrupt
	// path crosses in exactly IRQLatency.
	dllp := pcie.DefaultOverheads().DLLPWireBytes()
	quantum := cfg.IRQLatency
	var cut func(nd *Node, parentDom int)
	cut = func(nd *Node, parentDom int) {
		if nd == nil {
			return
		}
		d := domOf[nd]
		if d != parentDom {
			gen := nd.Link.Gen
			if gen == 0 {
				gen = cfg.Gen
			}
			if gen == 0 {
				gen = pcie.Gen2 // mirror LinkConfig.applyDefaults
			}
			if lat := pcie.WireTime(gen, nd.Link.Width, dllp) + cfg.PropDelay; lat < quantum {
				quantum = lat
			}
		}
		for _, c := range nd.Ports {
			cut(c, d)
		}
	}
	for _, rp := range spec.RootPorts {
		cut(rp, 0)
	}
	if quantum < 1 {
		quantum = 1
	}
	return &partition{domains: domains, domOf: domOf, quantum: quantum}, nil
}
