// Package topo builds arbitrary PCI-Express topologies for the
// simulated platform: a declarative Spec describes the fabric below the
// root complex — any number of root ports, cascaded switches with any
// fanout, and any mix of endpoint devices at any lane width — and Build
// instantiates it on the same CPU/DRAM/IOCache substrate the validation
// platform uses. The paper's §VI-A platform is just the canned
// Validation spec; its sweeps are edits to that spec (link widths via
// Spec.Link) and to the Config (fault plans via Config.Faults).
//
// Specs come from three places: Go code (the canned scenarios), the
// compact text grammar of Parse ("switch:x4(disk*8)"), or JSON. Bus
// numbers and BDFs are pre-planned with the same DFS the kernel's
// enumeration performs, so the host-side registration and the
// discovered topology always agree.
package topo

import (
	"fmt"
	"regexp"

	"pciesim/internal/fault"
	"pciesim/internal/pci"
	"pciesim/internal/pcie"
)

// Kind names a node type in a topology spec.
type Kind string

// Node kinds: one interior (switch) and three endpoint device models.
const (
	KindSwitch  Kind = "switch"
	KindDisk    Kind = "disk"
	KindNIC     Kind = "nic"
	KindTestDev Kind = "testdev"
)

// LinkSpec describes the link connecting a node to its parent port.
type LinkSpec struct {
	// Name identifies the link for fault attachment and reporting;
	// Normalize defaults it to "<node>.link".
	Name string `json:"name,omitempty"`
	// Width is the lane count; Normalize defaults switches to x4 and
	// endpoints to x1 (the validation widths).
	Width int `json:"width,omitempty"`
	// Gen overrides the platform generation for this link (0 = inherit
	// Config.Gen).
	Gen pcie.Generation `json:"gen,omitempty"`
	// Credits overrides the platform-wide credit configuration
	// (Config.Credits) for this link: the VC0 flow-control pool both
	// ends advertise, with router-side ends capped at their real queue
	// depths. Nil inherits; a pointer to the zero value forces the
	// legacy infinite-credit link. The text grammar's ":c N" attribute
	// sets UniformCredits(N).
	Credits *pcie.CreditConfig `json:"credits,omitempty"`
	// Degrade overrides the platform-wide adaptive-degradation policy
	// (Config.Degrade) for this link. Nil inherits.
	Degrade *pcie.DegradeConfig `json:"degrade,omitempty"`
	// Fault attaches a deterministic fault plan. Only settable from Go
	// or through Config.Faults (keyed by link name).
	Fault *fault.Plan `json:"-"`
}

// Node is one element of the fabric tree: a switch with child ports, or
// an endpoint device.
type Node struct {
	Kind Kind   `json:"kind"`
	Name string `json:"name,omitempty"`
	// Dom pins this node (and, by inheritance, its subtree) to a
	// timing domain of the parallel engine: 1..Domains-1 selects a
	// worker domain, 0 (the default) leaves placement to the
	// automatic partitioner. The text grammar's ":d N" attribute sets
	// it. Ignored by serial builds (Config.Domains <= 1).
	Dom int `json:"dom,omitempty"`
	// Link describes the upstream link of this node.
	Link LinkSpec `json:"link,omitempty"`
	// Ports are the downstream children (switches only). A nil entry is
	// an empty downstream port: it still gets a VP2P bridge and a bus
	// number, exactly like the validation switch's unused second port.
	Ports []*Node `json:"ports,omitempty"`
}

// Spec is a whole-fabric description: one entry per root-complex port.
// A nil entry is a root port with nothing behind it.
type Spec struct {
	Name      string  `json:"name,omitempty"`
	RootPorts []*Node `json:"root_ports"`
}

// nameRE is the legal node-name alphabet — chosen so every name
// round-trips through the text grammar's "@name" attribute.
var nameRE = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9_.\-]*$`)

// Fabric size limits. MaxBuses is architectural (bus numbers are
// 8-bit); the per-bridge fanout limit is the 32 device slots
// enumeration scans per bus.
const (
	MaxBuses  = 256
	maxFanout = 32
)

// Normalize fills defaulted fields in place — auto-generated node
// names, link names, lane widths — and then validates the spec. Build
// and Parse both call it; calling it twice is harmless.
func (s *Spec) Normalize() error {
	used := map[string]bool{}
	s.walk(func(n *Node) {
		if n.Name != "" {
			used[n.Name] = true
		}
	})
	seq := map[Kind]int{}
	s.walk(func(n *Node) {
		if n.Name == "" {
			prefix := string(n.Kind)
			if n.Kind == KindSwitch {
				prefix = "sw"
			}
			for {
				cand := fmt.Sprintf("%s%d", prefix, seq[n.Kind])
				seq[n.Kind]++
				if !used[cand] {
					n.Name = cand
					used[cand] = true
					break
				}
			}
		}
		if n.Link.Name == "" {
			n.Link.Name = n.Name + ".link"
		}
		if n.Link.Width == 0 {
			if n.Kind == KindSwitch {
				n.Link.Width = 4
			} else {
				n.Link.Width = 1
			}
		}
	})
	return s.Validate()
}

// walk visits every non-nil node in DFS order.
func (s *Spec) walk(fn func(*Node)) {
	var rec func(n *Node)
	rec = func(n *Node) {
		if n == nil {
			return
		}
		fn(n)
		for _, c := range n.Ports {
			rec(c)
		}
	}
	for _, rp := range s.RootPorts {
		rec(rp)
	}
}

// Link returns the spec of the link with the given name, or nil. Names
// set in the spec resolve at once; auto-generated "<node>.link" names
// exist only after Normalize.
func (s *Spec) Link(name string) *LinkSpec {
	var out *LinkSpec
	s.walk(func(n *Node) {
		if out == nil && n.Link.Name == name {
			out = &n.Link
		}
	})
	return out
}

// Validate checks structural legality. Every way a spec can be wrong
// returns an error — never a panic — so untrusted specs (the -topo
// flag, the fuzzer) are safe to feed through.
func (s *Spec) Validate() error {
	if len(s.RootPorts) == 0 {
		return fmt.Errorf("topo: spec has no root ports")
	}
	if len(s.RootPorts) > maxFanout {
		return fmt.Errorf("topo: %d root ports exceeds the %d device slots of bus 0", len(s.RootPorts), maxFanout)
	}
	names := map[string]bool{}
	linkNames := map[string]bool{}
	var check func(n *Node) error
	check = func(n *Node) error {
		if n == nil {
			return nil
		}
		switch n.Kind {
		case KindSwitch, KindDisk, KindNIC, KindTestDev:
		default:
			return fmt.Errorf("topo: unknown node kind %q", n.Kind)
		}
		if !nameRE.MatchString(n.Name) {
			return fmt.Errorf("topo: illegal node name %q", n.Name)
		}
		if names[n.Name] {
			return fmt.Errorf("topo: duplicate node name %q", n.Name)
		}
		names[n.Name] = true
		if linkNames[n.Link.Name] {
			return fmt.Errorf("topo: duplicate link name %q", n.Link.Name)
		}
		linkNames[n.Link.Name] = true
		if n.Link.Width < 1 || n.Link.Width > 32 {
			return fmt.Errorf("topo: node %q link width x%d outside 1..32", n.Name, n.Link.Width)
		}
		if n.Link.Gen < 0 || n.Link.Gen > pcie.Gen3 {
			return fmt.Errorf("topo: node %q link generation %d outside 0..3", n.Name, n.Link.Gen)
		}
		if n.Dom < 0 || n.Dom >= MaxBuses {
			return fmt.Errorf("topo: node %q timing domain %d outside 0..%d", n.Name, n.Dom, MaxBuses-1)
		}
		if n.Link.Credits != nil {
			if err := n.Link.Credits.Validate(); err != nil {
				return fmt.Errorf("topo: node %q link credits: %v", n.Name, err)
			}
		}
		if n.Kind == KindSwitch {
			if len(n.Ports) == 0 {
				return fmt.Errorf("topo: switch %q has fanout 0", n.Name)
			}
			if len(n.Ports) > maxFanout {
				return fmt.Errorf("topo: switch %q fanout %d exceeds the %d device slots of its internal bus", n.Name, len(n.Ports), maxFanout)
			}
			for _, c := range n.Ports {
				if err := check(c); err != nil {
					return err
				}
			}
		} else if len(n.Ports) > 0 {
			return fmt.Errorf("topo: endpoint %q cannot have downstream ports", n.Name)
		}
		return nil
	}
	for _, rp := range s.RootPorts {
		if err := check(rp); err != nil {
			return err
		}
	}
	if _, err := s.Plan(); err != nil {
		return err
	}
	return nil
}

// SwitchBuses are the bus numbers a switch's virtual bridges occupy:
// the upstream VP2P sits on Upstream, the downstream VP2Ps on Internal.
type SwitchBuses struct {
	Upstream, Internal uint8
}

// Plan pre-assigns bus numbers and endpoint BDFs with the same DFS the
// kernel's enumeration performs: each bridge claims the next bus for
// its secondary before descending, and empty ports still consume one.
// This is what lets Build register endpoint config spaces at the BDFs
// enumeration will discover them at.
type Plan struct {
	// Buses is the total bus count (highest assigned + 1).
	Buses int
	// SwitchBus maps each switch node to its bridge bus numbers.
	SwitchBus map[*Node]SwitchBuses
	// EndpointBDF maps each endpoint node to its device address.
	EndpointBDF map[*Node]pci.BDF
}

// Plan computes the bus/BDF plan, or an error if the spec needs more
// than MaxBuses buses. The spec must be normalized.
func (s *Spec) Plan() (*Plan, error) {
	p := &Plan{
		SwitchBus:   map[*Node]SwitchBuses{},
		EndpointBDF: map[*Node]pci.BDF{},
	}
	next := 1 // bus 0 is the root bus
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if next >= MaxBuses {
			return fmt.Errorf("topo: spec needs more than %d buses", MaxBuses)
		}
		if n == nil {
			next++ // an empty port's bridge still heads a (vacant) bus
			return nil
		}
		if n.Kind == KindSwitch {
			if next+1 >= MaxBuses {
				return fmt.Errorf("topo: spec needs more than %d buses", MaxBuses)
			}
			p.SwitchBus[n] = SwitchBuses{Upstream: uint8(next), Internal: uint8(next + 1)}
			next += 2
			for _, c := range n.Ports {
				if err := walk(c); err != nil {
					return err
				}
			}
			return nil
		}
		p.EndpointBDF[n] = pci.NewBDF(uint8(next), 0, 0)
		next++
		return nil
	}
	for _, rp := range s.RootPorts {
		if err := walk(rp); err != nil {
			return nil, err
		}
	}
	p.Buses = next
	return p, nil
}

// Endpoints returns the endpoint nodes in DFS (bus) order.
func (s *Spec) Endpoints() []*Node {
	var out []*Node
	s.walk(func(n *Node) {
		if n.Kind != KindSwitch {
			out = append(out, n)
		}
	})
	return out
}

// --- canned scenarios ---

// Validation is the paper's §VI-A platform: a disk behind an x4-uplink
// switch on root port 0, the NIC directly on root port 1, and a third,
// empty root port. Its node and link names are the stats namespace the
// golden dumps pin, and the link names ("uplink", "disklink",
// "niclink") are the handles experiments edit widths and attach fault
// plans through.
func Validation() *Spec {
	return &Spec{Name: "validation", RootPorts: []*Node{
		{
			Kind: KindSwitch, Name: "switch",
			Link: LinkSpec{Name: "uplink", Width: 4},
			Ports: []*Node{
				{Kind: KindDisk, Name: "disk", Link: LinkSpec{Name: "disklink", Width: 1}},
				nil,
			},
		},
		{Kind: KindNIC, Name: "nic", Link: LinkSpec{Name: "niclink", Width: 1}},
		nil,
	}}
}

// Fanout8 is the contention scenario: eight disks, each on an x1 link,
// under one switch whose x4 uplink is the shared bottleneck.
func Fanout8() *Spec {
	disks := make([]*Node, 8)
	for i := range disks {
		disks[i] = &Node{Kind: KindDisk}
	}
	return &Spec{Name: "fanout8", RootPorts: []*Node{
		{Kind: KindSwitch, Link: LinkSpec{Width: 4}, Ports: disks},
	}}
}

// P2P is the peer-to-peer scenario: a disk and a NIC sharing one
// switch, so disk DMA targeting the NIC's BAR can turn around at the
// switch instead of reflecting off the root complex.
func P2P() *Spec {
	return &Spec{Name: "p2p", RootPorts: []*Node{
		{Kind: KindSwitch, Link: LinkSpec{Width: 4}, Ports: []*Node{
			{Kind: KindDisk},
			{Kind: KindNIC},
		}},
	}}
}

// Canned resolves a scenario name to its spec, or nil.
func Canned(name string) *Spec {
	switch name {
	case "validation":
		return Validation()
	case "fanout8":
		return Fanout8()
	case "p2p":
		return P2P()
	}
	return nil
}

// CannedNames lists the canned scenario names.
func CannedNames() []string { return []string{"validation", "fanout8", "p2p"} }

// Lookup resolves a -topo style argument: a canned scenario name yields
// that scenario, anything else is parsed as grammar or JSON.
func Lookup(s string) (*Spec, error) {
	if spec := Canned(s); spec != nil {
		return spec, nil
	}
	return Parse(s)
}
