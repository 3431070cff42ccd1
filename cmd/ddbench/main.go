// Command ddbench regenerates the dd-throughput figures of the paper's
// evaluation (Fig 9(a)-(d)) and prints Table I.
//
// Usage:
//
//	ddbench [-fig 9a|9b|9c|9d|err|fc|degrade|lat|scen|wl|all] [-scale N] [-jobs N] [-par N] [-csv] [-table1]
//
// -scale divides the paper's 64-512 MiB block sizes (and dd's fixed
// startup overhead) by N; 1 reproduces the full-size experiment, the
// default 16 runs in a couple of minutes with an identical curve.
//
// -jobs fans a figure's independent (series, block-size) runs across N
// workers. Each run is its own single-threaded simulation, so the
// output is byte-identical at any job count; -jobs -1 uses every CPU.
//
// -par splits each simulation itself into N timing domains run by the
// conservative parallel engine (DESIGN.md §15). Orthogonal to -jobs,
// and likewise byte-identical to the serial engine at any value;
// configurations the parallel engine cannot express (fault plans on
// the cut links, platform-wide degradation, DPC) fall back to serial.
//
// The observability flags apply per run within a sweep: with
// `-stats-out stats.json` each (series, block-size) point writes
// stats-<series>@<block>MB.json, and `-trace trace.json` likewise
// writes one Chrome trace per run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pciesim"
	"pciesim/internal/obscli"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 9a, 9b, 9c, 9d, err, fc, degrade, lat, scen, wl or all")
	topoSpec := flag.String("topo", "", "sweep block sizes over an arbitrary topology: a canned scenario name or a spec like \"switch:x4(disk*8)\"")
	scale := flag.Int("scale", 16, "divide the paper's block sizes by this factor")
	jobs := flag.Int("jobs", 1, "parallel simulation runs (-1 = one per CPU); output is identical at any value")
	par := flag.Int("par", 0, "timing domains per simulation for the conservative parallel engine (0 or 1 = serial); output is identical at any value")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	table1 := flag.Bool("table1", false, "also print Table I (protocol overheads)")
	var obs obscli.Flags
	obs.Register(flag.CommandLine)
	flag.Parse()

	if *table1 {
		printTableI()
	}

	opt := pciesim.Options{Scale: *scale, Jobs: *jobs, Par: *par}
	// One armed copy per run; dumps are suffixed with the run label.
	opt.Observe, opt.ObserveDone = obs.PerRun()
	if *topoSpec != "" {
		result, err := pciesim.RunTopoSweep(*topoSpec, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddbench: %v\n", err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(result.CSV())
		} else {
			fmt.Println(result.Format())
		}
		return
	}

	var selected []figure
	for _, f := range figures {
		if f.name == *fig || (*fig == "all" && !f.optIn) {
			selected = append(selected, f)
		}
	}
	if len(selected) == 0 {
		names := make([]string, len(figures))
		for i, f := range figures {
			names[i] = f.name
		}
		fmt.Fprintf(os.Stderr, "ddbench: unknown figure %q; valid names: %s, all\n",
			*fig, strings.Join(names, ", "))
		os.Exit(2)
	}
	for _, f := range selected {
		result, err := f.run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddbench: %v\n", err)
			os.Exit(1)
		}
		switch {
		case *csv:
			fmt.Print(result.CSV())
		case f.name == "scen":
			// The scenario report carries no trailing blank line.
			fmt.Print(result.Format())
		default:
			fmt.Println(result.Format())
		}
	}
}

// table is what every figure runner returns.
type table interface {
	Format() string
	CSV() string
}

// figure is one -fig entry. Opt-in entries are reports rather than
// paper figures and run only when named, never under -fig all.
type figure struct {
	name  string
	optIn bool
	run   func(pciesim.Options) (table, error)
}

// figures is the -fig table in -fig all order; its names, in this
// order, are the valid -fig values.
var figures = []figure{
	{"9a", false, asTable(pciesim.RunFig9a)},
	{"9b", false, asTable(pciesim.RunFig9b)},
	{"9c", false, asTable(pciesim.RunFig9c)},
	{"9d", false, asTable(pciesim.RunFig9d)},
	{"err", false, asTable(pciesim.RunFigErr)},
	{"fc", false, asTable(pciesim.RunFigFC)},
	{"degrade", false, asTable(pciesim.RunFigDegrade)},
	{"lat", true, asTable(pciesim.RunFigLat)},
	{"scen", true, asTable(func(opt pciesim.Options) (pciesim.ScenarioReport, error) {
		return pciesim.RunScenarios(nil, opt)
	})},
	{"wl", true, asTable(pciesim.RunFigWL)},
}

// asTable adapts a runner returning a concrete result type.
func asTable[T table](run func(pciesim.Options) (T, error)) func(pciesim.Options) (table, error) {
	return func(opt pciesim.Options) (table, error) { return run(opt) }
}

func printTableI() {
	fmt.Println("Table I — transaction, data link, and physical layer overheads")
	fmt.Printf("%-14s %-50s %s\n", "Overhead", "Type of Overhead", "Packet Type")
	for _, r := range pciesim.TableI() {
		fmt.Printf("%-14s %-50s %s\n", r.Overhead, r.Type, r.PacketType)
	}
	fmt.Println()
}
