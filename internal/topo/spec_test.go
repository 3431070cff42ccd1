package topo

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pciesim/internal/fault"
	"pciesim/internal/pci"
	"pciesim/internal/pcie"
)

// TestValidationPlan pins the bus plan of the §VI-A topology to the
// numbers the hardwired platform used: switch bridges on buses 1/2,
// disk at 03:00.0, NIC at 05:00.0, seven buses total (the empty switch
// port and the empty root port each consume one).
func TestValidationPlan(t *testing.T) {
	s := Validation()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	p, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Buses != 7 {
		t.Errorf("Buses = %d, want 7", p.Buses)
	}
	sw := s.RootPorts[0]
	if got := p.SwitchBus[sw]; got != (SwitchBuses{Upstream: 1, Internal: 2}) {
		t.Errorf("switch buses = %+v, want {1 2}", got)
	}
	if got := p.EndpointBDF[sw.Ports[0]]; got != pci.NewBDF(3, 0, 0) {
		t.Errorf("disk BDF = %v, want 03:00.0", got)
	}
	if got := p.EndpointBDF[s.RootPorts[1]]; got != pci.NewBDF(5, 0, 0) {
		t.Errorf("nic BDF = %v, want 05:00.0", got)
	}
}

// TestIllegalSpecs: every structurally illegal spec must surface as an
// error from Normalize — never a panic, never a bad build.
func TestIllegalSpecs(t *testing.T) {
	deep := &Spec{RootPorts: []*Node{{Kind: KindSwitch, Ports: []*Node{nil}}}}
	// A switch chain long enough to need >256 buses (2 per switch).
	cur := deep.RootPorts[0]
	for i := 0; i < 140; i++ {
		next := &Node{Kind: KindSwitch, Ports: []*Node{nil}}
		cur.Ports = []*Node{next}
		cur = next
	}

	wide := make([]*Node, 33)
	for i := range wide {
		wide[i] = &Node{Kind: KindDisk}
	}

	cases := []struct {
		name string
		spec *Spec
	}{
		{"no root ports", &Spec{}},
		{"too many root ports", &Spec{RootPorts: make([]*Node, 33)}},
		{"unknown kind", &Spec{RootPorts: []*Node{{Kind: "gpu"}}}},
		{"illegal name", &Spec{RootPorts: []*Node{{Kind: KindDisk, Name: "0bad name"}}}},
		{"duplicate node name", &Spec{RootPorts: []*Node{
			{Kind: KindDisk, Name: "d"}, {Kind: KindNIC, Name: "d"}}}},
		{"duplicate link name", &Spec{RootPorts: []*Node{
			{Kind: KindDisk, Link: LinkSpec{Name: "l"}}, {Kind: KindNIC, Link: LinkSpec{Name: "l"}}}}},
		{"width out of range", &Spec{RootPorts: []*Node{{Kind: KindDisk, Link: LinkSpec{Width: 33}}}}},
		{"negative width", &Spec{RootPorts: []*Node{{Kind: KindDisk, Link: LinkSpec{Width: -1}}}}},
		{"generation out of range", &Spec{RootPorts: []*Node{{Kind: KindDisk, Link: LinkSpec{Gen: 9}}}}},
		{"switch fanout 0", &Spec{RootPorts: []*Node{{Kind: KindSwitch}}}},
		{"switch fanout 33", &Spec{RootPorts: []*Node{{Kind: KindSwitch, Ports: wide}}}},
		{"endpoint with ports", &Spec{RootPorts: []*Node{
			{Kind: KindDisk, Ports: []*Node{{Kind: KindNIC}}}}}},
		{"more than 256 buses", deep},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := tc.spec.Normalize(); err == nil {
				t.Fatal("Normalize accepted an illegal spec")
			}
		})
	}
}

// randomSpec draws a bounded random legal topology: up to 3 root ports,
// switch depth <= 3, fanout <= 4, a mix of endpoint kinds, empty ports,
// and assorted widths/generations. Everything it can produce must
// normalize, build, and boot.
func randomSpec(rng *rand.Rand) *Spec {
	var node func(depth int) *Node
	node = func(depth int) *Node {
		if depth > 0 && rng.Intn(2) == 0 {
			n := &Node{Kind: KindSwitch, Link: LinkSpec{
				Width: []int{0, 1, 2, 4, 8, 16}[rng.Intn(6)],
				Gen:   pcie.Generation(rng.Intn(4)),
			}}
			fanout := 1 + rng.Intn(4)
			for i := 0; i < fanout; i++ {
				if rng.Intn(5) == 0 {
					n.Ports = append(n.Ports, nil) // empty downstream port
				} else {
					n.Ports = append(n.Ports, node(depth-1))
				}
			}
			return n
		}
		kind := []Kind{KindDisk, KindNIC, KindTestDev}[rng.Intn(3)]
		return &Node{Kind: kind, Link: LinkSpec{Width: []int{0, 1, 2, 4}[rng.Intn(4)]}}
	}
	s := &Spec{Name: "random"}
	for i := 0; i < 1+rng.Intn(3); i++ {
		if rng.Intn(6) == 0 {
			s.RootPorts = append(s.RootPorts, nil)
		} else {
			s.RootPorts = append(s.RootPorts, node(3))
		}
	}
	return s
}

// TestRandomTopologies is the property test: seeded random legal
// topologies must build and boot, and the enumerated fabric must
// satisfy the structural invariants — the plan's bus count and endpoint
// BDFs are what enumeration discovers, every function address is
// unique, child bridge bus ranges nest strictly inside their parent's,
// and no two BARs overlap within an address space.
func TestRandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < 25; i++ {
		spec := randomSpec(rng)
		t.Run(fmt.Sprintf("seed20260806-%02d", i), func(t *testing.T) {
			if err := spec.Normalize(); err != nil {
				t.Fatalf("random spec did not normalize: %v\nspec: %s", err, spec)
			}
			plan, err := spec.Plan()
			if err != nil {
				t.Fatal(err)
			}
			sys, err := Build(spec, DefaultConfig())
			if err != nil {
				t.Fatalf("build: %v\nspec: %s", err, spec)
			}
			tp, err := sys.Boot()
			if err != nil {
				t.Fatalf("boot: %v\nspec: %s", err, spec)
			}

			if tp.Buses != plan.Buses {
				t.Errorf("enumeration found %d buses, plan says %d", tp.Buses, plan.Buses)
			}
			seen := map[pci.BDF]bool{}
			for _, d := range tp.All {
				if seen[d.BDF] {
					t.Errorf("duplicate BDF %v", d.BDF)
				}
				seen[d.BDF] = true
			}
			for ep, bdf := range plan.EndpointBDF {
				if !seen[bdf] {
					t.Errorf("planned endpoint %s at %v not discovered", ep.Name, bdf)
				}
			}

			// Bridge bus ranges: children nested, siblings disjoint.
			for _, d := range tp.All {
				if !d.IsBridge {
					continue
				}
				if d.Secondary > d.Subordinate {
					t.Errorf("bridge %v: secondary %#x > subordinate %#x", d.BDF, d.Secondary, d.Subordinate)
				}
				if d.BDF.Bus >= d.Secondary {
					t.Errorf("bridge %v: secondary %#x not below its own bus", d.BDF, d.Secondary)
				}
				prevEnd := -1
				for _, c := range d.Children {
					if !c.IsBridge {
						continue
					}
					if c.Secondary <= d.Secondary || c.Subordinate > d.Subordinate {
						t.Errorf("bridge %v range [%#x,%#x] escapes parent %v [%#x,%#x]",
							c.BDF, c.Secondary, c.Subordinate, d.BDF, d.Secondary, d.Subordinate)
					}
					if int(c.Secondary) <= prevEnd {
						t.Errorf("bridge %v range [%#x,%#x] overlaps a sibling ending at %#x",
							c.BDF, c.Secondary, c.Subordinate, prevEnd)
					}
					prevEnd = int(c.Subordinate)
				}
			}

			// BAR windows: non-overlapping per address space.
			type window struct {
				owner      string
				start, end uint64 // [start, end)
			}
			var mem, io []window
			for _, d := range tp.All {
				for _, b := range d.BARs {
					w := window{fmt.Sprintf("%v bar%d", d.BDF, b.Index), b.Addr, b.Addr + b.Size}
					if b.IsIO {
						io = append(io, w)
					} else {
						mem = append(mem, w)
					}
				}
			}
			for _, space := range [][]window{mem, io} {
				for a := 0; a < len(space); a++ {
					for b := a + 1; b < len(space); b++ {
						x, y := space[a], space[b]
						if x.start < y.end && y.start < x.end {
							t.Errorf("BAR windows overlap: %s [%#x,%#x) and %s [%#x,%#x)",
								x.owner, x.start, x.end, y.owner, y.start, y.end)
						}
					}
				}
			}
		})
	}
}

// TestNormalizeIdempotent: Normalize must be stable — a second pass
// changes nothing, so a spec can be shared read-only after one call.
func TestNormalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		s := randomSpec(rng)
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		first := s.String()
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		if second := s.String(); second != first {
			t.Fatalf("Normalize not idempotent:\nfirst:  %s\nsecond: %s", first, second)
		}
	}
}

// TestCannedSpecsBuild: every canned scenario must build and boot with
// every disk, NIC and testdev bound to a driver.
func TestCannedSpecsBuild(t *testing.T) {
	for _, name := range CannedNames() {
		t.Run(name, func(t *testing.T) {
			spec := Canned(name)
			if spec == nil {
				t.Fatalf("Canned(%q) = nil", name)
			}
			sys, err := Build(spec, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Boot(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBuildRejectsBadGeneration: a platform generation outside
// Gen1..Gen3 is a build error, not a panic once the links start
// serializing at boot.
func TestBuildRejectsBadGeneration(t *testing.T) {
	for _, gen := range []pcie.Generation{-1, 0, 4, 7} {
		cfg := DefaultConfig()
		cfg.Gen = gen
		if _, err := Build(Validation(), cfg); err == nil {
			t.Errorf("Build accepted Config.Gen = %d", gen)
		}
	}
}

// TestBuildRejectsUnknownFaultLink: a fault plan keyed by a name no link
// of the spec carries fails the build, naming the key and the spec's
// links, instead of leaving the run silently clean; auto-generated link
// names resolve.
func TestBuildRejectsUnknownFaultLink(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = map[string]*fault.Plan{"disklink": fault.CorruptionPlan(0.05)}
	_, err := Build(Fanout8(), cfg)
	if err == nil {
		t.Fatal("Build accepted a fault plan for a link fanout8 does not have")
	}
	for _, want := range []string{`"disklink"`, "sw0.link", "disk7.link"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	cfg.Faults = map[string]*fault.Plan{"disk0.link": fault.CorruptionPlan(0.05)}
	if _, err := Build(Fanout8(), cfg); err != nil {
		t.Errorf("fault plan on the auto-named disk0.link: %v", err)
	}
}

// TestSpecLink: Link finds a named link for editing, and an edit that
// leaves the legal range fails the build.
func TestSpecLink(t *testing.T) {
	s := Validation()
	if s.Link("nosuchlink") != nil {
		t.Error("Link found a link that does not exist")
	}
	s.Link("disklink").Width = 8
	if got := s.RootPorts[0].Ports[0].Link.Width; got != 8 {
		t.Errorf("disk link width = %d after the edit, want 8", got)
	}
	s.Link("uplink").Width = 64
	if _, err := Build(s, DefaultConfig()); err == nil || !strings.Contains(err.Error(), "x64 outside 1..32") {
		t.Errorf("Build of an x64 uplink: err = %v", err)
	}
}
