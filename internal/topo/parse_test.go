package topo

import (
	"strings"
	"testing"
)

// TestParseGrammar checks the text grammar against expected plans.
func TestParseGrammar(t *testing.T) {
	cases := []struct {
		in        string
		buses     int
		endpoints int
	}{
		{"disk", 2, 1},
		{"disk,nic", 3, 2},
		{"_", 2, 0},
		{"switch:x4(disk*8)", 11, 8},
		{"switch:x4(disk,nic)", 5, 2},
		{"switch:x4@switch(disk@disk,_),nic@nic,_", 7, 2}, // validation shape
		{"sw(td)", 4, 1},
		{"sw(sw(sw(disk)))", 8, 1},
		{"switch:x8:g1(disk:x2*2)", 5, 2},
		{" switch ( disk , _ ) ", 5, 1}, // whitespace is free
		{"sw(disk)*4", 13, 4},           // replicated subtree
	}
	for _, tc := range cases {
		t.Run(tc.in, func(t *testing.T) {
			s, err := Parse(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			p, err := s.Plan()
			if err != nil {
				t.Fatal(err)
			}
			if p.Buses != tc.buses {
				t.Errorf("Buses = %d, want %d", p.Buses, tc.buses)
			}
			if got := len(s.Endpoints()); got != tc.endpoints {
				t.Errorf("endpoints = %d, want %d", got, tc.endpoints)
			}
		})
	}
}

// TestParseAttributes checks that widths, generations and names land on
// the right nodes.
func TestParseAttributes(t *testing.T) {
	s, err := Parse("switch:x8:g1@top(disk:x2@d0,nic@n0)")
	if err != nil {
		t.Fatal(err)
	}
	top := s.RootPorts[0]
	if top.Name != "top" || top.Link.Width != 8 || int(top.Link.Gen) != 1 {
		t.Errorf("switch = %q x%d g%d, want top x8 g1", top.Name, top.Link.Width, top.Link.Gen)
	}
	if d := top.Ports[0]; d.Name != "d0" || d.Link.Width != 2 {
		t.Errorf("disk = %q x%d, want d0 x2", d.Name, d.Link.Width)
	}
	if n := top.Ports[1]; n.Name != "n0" || n.Link.Width != 1 {
		t.Errorf("nic = %q x%d, want n0 x1 (defaulted)", n.Name, n.Link.Width)
	}
}

// TestParseJSON: input starting with "{" takes the JSON path.
func TestParseJSON(t *testing.T) {
	s, err := Parse(`{"name":"j","root_ports":[
		{"kind":"switch","link":{"width":4},"ports":[{"kind":"disk"},null]},
		{"kind":"nic"}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "j" {
		t.Errorf("Name = %q, want j", s.Name)
	}
	p, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Buses != 6 {
		t.Errorf("Buses = %d, want 6", p.Buses)
	}
}

// TestParseErrors: malformed input errors with a location, never
// panics, and never returns a half-built spec.
func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"gpu",
		"disk(nic)",           // endpoint with port list
		"switch",              // fanout 0
		"switch(",             // unterminated
		"switch(disk))",       // trailing input
		"switch(disk" + ",_",  // unbalanced
		"disk:z4",             // unknown attribute
		"disk:x",              // missing number
		"disk:x99999",         // >4 digits
		"disk:x0",             // width out of range
		"disk:g7",             // generation out of range
		"disk@",               // missing name
		"disk@a,nic@a",        // duplicate name
		"disk*0",              // replication out of range
		"disk*999",            // >32 ports in one list
		"disk@d*2",            // replicating named subtree
		"sw(disk)*257",        // replication cap
		"disk,disk,{",         // junk tail
		"{not json",           // bad JSON
		`{"root_ports":[]}`,   // no root ports
		`{"root_ports":[{}]}`, // missing kind
		strings.Repeat("a", maxSpecLen+1),
		strings.Repeat("sw(", maxDepth+2) + "disk" + strings.Repeat(")", maxDepth+2),
	}
	for _, in := range cases {
		name := in
		if len(name) > 24 {
			name = name[:24] + "..."
		}
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked on %q: %v", in, r)
				}
			}()
			if s, err := Parse(in); err == nil {
				t.Fatalf("Parse(%q) accepted, spec: %s", in, s)
			}
		})
	}
}

// TestStringRoundTrip: the rendered text form of any parsed spec must
// re-parse to the same structure — same String, same bus plan.
func TestStringRoundTrip(t *testing.T) {
	inputs := []string{
		"disk",
		"switch:x4(disk*8)",
		"switch:x4(disk,nic)",
		"switch:x4@switch(disk@disk,_),nic@nic,_",
		"sw:x8:g3(sw:x2(td,_,disk),nic)*2",
		`{"root_ports":[{"kind":"switch","link":{"width":4},"ports":[{"kind":"disk"}]}]}`,
	}
	for _, in := range inputs {
		t.Run(in, func(t *testing.T) {
			s1, err := Parse(in)
			if err != nil {
				t.Fatal(err)
			}
			text := s1.String()
			s2, err := Parse(text)
			if err != nil {
				t.Fatalf("String() output %q does not re-parse: %v", text, err)
			}
			if got := s2.String(); got != text {
				t.Errorf("round trip unstable: %q -> %q", text, got)
			}
			p1, err1 := s1.Plan()
			p2, err2 := s2.Plan()
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if p1.Buses != p2.Buses {
				t.Errorf("bus plan changed across round trip: %d -> %d", p1.Buses, p2.Buses)
			}
		})
	}
}

// TestCannedStringRoundTrip: every canned scenario survives the text
// form (this is what lets RunTopoSweep-style callers clone a spec).
func TestCannedStringRoundTrip(t *testing.T) {
	for _, name := range CannedNames() {
		t.Run(name, func(t *testing.T) {
			s := Canned(name)
			if err := s.Normalize(); err != nil {
				t.Fatal(err)
			}
			s2, err := Parse(s.String())
			if err != nil {
				t.Fatalf("%q does not re-parse: %v", s.String(), err)
			}
			p1, _ := s.Plan()
			p2, _ := s2.Plan()
			if p1.Buses != p2.Buses {
				t.Errorf("bus plan changed: %d -> %d", p1.Buses, p2.Buses)
			}
		})
	}
}

// TestLookup: a canned name resolves to its scenario, anything else goes
// through Parse, and a malformed string is an error.
func TestLookup(t *testing.T) {
	s, err := Lookup("fanout8")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "fanout8" || len(s.Endpoints()) != 8 {
		t.Errorf("Lookup(fanout8) = %q with %d endpoints, want the canned fanout8", s.Name, len(s.Endpoints()))
	}
	s, err = Lookup("switch:x4(disk*2),nic")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Endpoints()); got != 3 {
		t.Errorf("grammar lookup found %d endpoints, want 3", got)
	}
	if _, err := Lookup("switch(disk"); err == nil {
		t.Error("Lookup accepted a malformed spec")
	}
}
