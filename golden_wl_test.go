package pciesim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pciesim/internal/workload"
)

// goldenWLCases pin the workload engines' observable behavior the same
// way goldenCases pin dd's: each materializes a synthetic schedule,
// executes it as a workload-figure job on a fresh topology platform,
// and compares the complete stats dump byte-for-byte against
// testdata/golden/wl-*.json. Any drift in the generators (a different
// gap drawn, a different address) or in the executor (an op issued a
// tick late) shows up as a diff.
var goldenWLCases = []struct {
	name  string
	spec  string
	flows []workload.FlowSpec
}{
	{"wl-poisson-rx", "validation", wlNICFlow(workload.ArrivalPoisson)},
	{"wl-bursty-rx", "validation", wlNICFlow(workload.ArrivalBursty)},
	{"wl-matrix2", "switch:x4(disk*2)", wlMatrixFlows(2)},
}

// TestGoldenWLDumps: same binary, same flow specs, same seeds must
// reproduce the workload stats dump to the byte. Regenerate with
// `go test -run TestGoldenWLDumps -update` after an intentional
// behavior change, and review the diff like code.
func TestGoldenWLDumps(t *testing.T) {
	for _, tc := range goldenWLCases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := workload.Synthesize(tc.flows)
			if err != nil {
				t.Fatal(err)
			}
			j, err := wlJob(tc.name, tc.spec, tr)
			if err != nil {
				t.Fatal(err)
			}
			outs, err := runJobs(Options{}, []job[wlOutcome]{j})
			if err != nil {
				t.Fatal(err)
			}
			out := outs[0]
			path := filepath.Join("testdata", "golden", tc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out.dump, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(out.dump, want) {
				t.Fatalf("stats dump differs from %s (-update after intentional changes);\n got %d bytes, want %d\n%s",
					path, len(out.dump), len(want), firstDiff(out.dump, want))
			}
		})
	}
}
