package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pciesim/internal/topo"
)

// layers are the simulator's modules as the per-layer metrics name
// them, in report order. "other" collects any event or counter whose
// component is not in the system inventory, so a new component shows
// up there instead of being silently folded into a neighbour.
var layers = []string{"link", "router", "xbar", "bridge", "pci", "cache", "memctrl", "devices", "kernel", "other"}

// substrate maps the component names topo.Build gives the fixed part
// of every platform, plus the kernel task names the benchmark's calls
// spawn (boot, dd, dd.<disk>, wl.<endpoint>), to their layer.
var substrate = map[string]string{
	"rc":       "router",
	"membus":   "xbar",
	"iobus":    "xbar",
	"iobridge": "bridge",
	"pcihost":  "pci",
	"iocache":  "cache",
	"dram":     "memctrl",
	"msiframe": "devices",
	"cpu0":     "kernel",
	"boot":     "kernel",
	"dd":       "kernel",
	"wl":       "kernel",
}

// layerMap assigns event and counter names to layers by the longest
// component name that prefixes them at a dot boundary. Longest wins so
// an auto-named link "switch0.link" is not taken for its switch.
type layerMap map[string]string

func newLayerMap(sys *topo.System) layerMap {
	m := layerMap{}
	for name, layer := range substrate {
		m[name] = layer
	}
	for _, s := range sys.Switches {
		m[s.Name] = "router"
	}
	for _, l := range sys.Links {
		m[l.Name] = "link"
	}
	for _, d := range sys.Disks {
		m[d.Name] = "devices"
	}
	for _, n := range sys.NICs {
		m[n.Name] = "devices"
	}
	for _, t := range sys.TestDevs {
		m[t.Name] = "devices"
	}
	return m
}

func (m layerMap) layerOf(name string) string {
	// Strip the pcie. namespace the link counters are registered under.
	name = strings.TrimPrefix(name, "pcie.")
	for end := len(name); end > 0; end = strings.LastIndexByte(name[:end], '.') {
		if layer, ok := m[name[:end]]; ok {
			return layer
		}
	}
	return "other"
}

// profRow is one event-name row of sim.Profiler.WriteTable.
type profRow struct {
	name     string
	count    uint64
	sameTick uint64
	wallNs   float64
}

// parseProfile reads the per-event rows of Profiler.WriteTable(w, 0,
// true), the profiler's only public rendering, and checks them against
// the totals in its header line.
func parseProfile(r io.Reader) ([]profRow, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("profile: empty table")
	}
	var total, totalSame uint64
	var names int
	if _, err := fmt.Sscanf(sc.Text(), "engine profile — %d events fired, %d same-tick re-schedules, %d event names",
		&total, &totalSame, &names); err != nil {
		return nil, fmt.Errorf("profile header %q: %w", sc.Text(), err)
	}
	var rows []profRow
	var sum, sumSame uint64
	for sc.Scan() {
		line := sc.Text()
		if line == "by component:" {
			break
		}
		f := strings.Fields(line)
		if len(f) < 5 {
			continue // the non-reproducibility note and the column header
		}
		n := len(f)
		count, err1 := strconv.ParseUint(f[n-4], 10, 64)
		same, err2 := strconv.ParseUint(f[n-3], 10, 64)
		wallMs, err3 := strconv.ParseFloat(f[n-2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			if len(rows) == 0 {
				continue // header text that happens to have five fields
			}
			return nil, fmt.Errorf("profile row %q: not name, count, same-tick, wall, ns/ev", line)
		}
		rows = append(rows, profRow{strings.Join(f[:n-4], " "), count, same, wallMs * 1e6})
		sum += count
		sumSame += same
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) != names || sum != total || sumSame != totalSame {
		return nil, fmt.Errorf("profile: parsed %d rows, %d events, %d same-tick; header says %d, %d, %d",
			len(rows), sum, sumSame, names, total, totalSame)
	}
	return rows, nil
}

// layerTotal is one layer's share of a profile.
type layerTotal struct {
	events, sameTick uint64
	wallNs           float64
}

// byLayer sums profile rows per layer.
func byLayer(rows []profRow, m layerMap) map[string]*layerTotal {
	out := make(map[string]*layerTotal, len(layers))
	for _, l := range layers {
		out[l] = &layerTotal{}
	}
	for _, r := range rows {
		t := out[m.layerOf(r.name)]
		t.events += r.count
		t.sameTick += r.sameTick
		t.wallNs += r.wallNs
	}
	return out
}
