package pciesim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pciesim/internal/sim"
)

// TestFigureOutputGolden pins the printed output of every experiment
// runner at Scale 256: each figure's Format() and CSV() text, the
// Table II rows, and — per simulation, in ObserveDone order — the run
// label and the SHA-256 of its stats dump. Any refactor of the
// experiment layer must leave testdata/golden/figures.txt unchanged;
// regenerate with `go test -run TestFigureOutputGolden -update` only
// after an intentional behavior change.
func TestFigureOutputGolden(t *testing.T) {
	var out, labels strings.Builder
	opt := Options{
		Scale: 256,
		Jobs:  2,
		ObserveDone: func(eng *sim.Engine, label string) error {
			var buf bytes.Buffer
			if err := eng.Stats().WriteJSON(&buf, uint64(eng.Now())); err != nil {
				return err
			}
			fmt.Fprintf(&labels, "%s %x\n", label, sha256.Sum256(buf.Bytes()))
			return nil
		},
	}
	type printable interface {
		Format() string
	}
	section := func(name string, p printable, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&out, "== %s ==\n%s", name, p.Format())
		if c, ok := p.(interface{ CSV() string }); ok {
			out.WriteString(c.CSV())
		}
		fmt.Fprintf(&labels, "-- %s\n", name)
	}
	for _, f := range []struct {
		name string
		run  func(Options) (Figure, error)
	}{{"fig9a", RunFig9a}, {"fig9b", RunFig9b}, {"fig9c", RunFig9c}, {"fig9d", RunFig9d}} {
		fig, err := f.run(opt)
		section(f.name, fig, err)
	}
	errFig, err := RunFigErr(opt)
	section("figerr", errFig, err)
	fcFig, err := RunFigFC(opt)
	section("figfc", fcFig, err)
	degFig, err := RunFigDegrade(opt)
	section("figdegrade", degFig, err)
	latFig, err := RunFigLat(opt)
	section("figlat", latFig, err)
	wlFig, err := RunFigWL(opt)
	section("figwl", wlFig, err)
	scen, err := RunScenarios(nil, opt)
	section("scenarios", scen, err)
	topoFig, err := RunTopoSweep("fanout8", opt)
	section("topo-fanout8", topoFig, err)
	camp, err := RunFaultCampaign(4, 1e-3, opt)
	section("fault-campaign", camp, err)
	hot, err := RunHotplugCampaign(4, opt)
	section("hotplug-campaign", hot, err)

	rows, err := RunTableII(opt.Jobs)
	if err != nil {
		t.Fatalf("table2: %v", err)
	}
	out.WriteString("== table2 ==\n")
	for _, r := range rows {
		fmt.Fprintf(&out, "rc=%dns mmio=%.3fns\n", r.RCLatencyNs, r.MMIOLatencyNs)
	}
	out.WriteString("== observed runs ==\n")
	out.WriteString(labels.String())

	path := filepath.Join("testdata", "golden", "figures.txt")
	got := []byte(out.String())
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("figure output differs from %s (-update after intentional changes);\n%s",
			path, firstDiff(got, want))
	}
}
