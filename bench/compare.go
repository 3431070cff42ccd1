package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// compareRow is one key of a compare: its value on each side and the
// relative change from a to b.
type compareRow struct {
	key     string
	a, b    float64
	inA     bool
	inB     bool
	rel     float64
	verdict string
}

// compareFiles diffs two result files (the -out file or the final JSON
// line) or two stats dumps key by key. End-to-end rows that worsen by
// more than their bound are marked REGRESSION; the returned count of
// such rows makes the command exit nonzero.
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := loadFlat(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadFlat(pathB)
	if err != nil {
		return 0, err
	}
	rows, same := diff(a, b)
	regressions := 0
	fmt.Fprintf(w, "%-52s %14s %14s %9s\n", "key", "a", "b", "change")
	for _, r := range rows {
		if r.verdict == "REGRESSION" {
			regressions++
		}
		change := "added"
		switch {
		case !r.inB:
			change = "removed"
		case r.inA:
			change = fmt.Sprintf("%+.2f%%", r.rel*100)
		}
		fmt.Fprintf(w, "%-52s %14.6g %14.6g %9s %s\n", r.key, r.a, r.b, change, r.verdict)
	}
	fmt.Fprintf(w, "%d keys changed, %d unchanged, %d regressions beyond their bound\n", len(rows), same, regressions)
	return regressions, nil
}

// diff returns the changed keys sorted by the size of their relative
// change, largest first, and the number of unchanged keys.
func diff(a, b map[string]float64) ([]compareRow, int) {
	bounds := map[string]metricDef{}
	for _, d := range endToEnd {
		bounds[d.name] = d
	}
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var rows []compareRow
	same := 0
	for k := range keys {
		va, inA := a[k]
		vb, inB := b[k]
		if inA && inB && va == vb {
			same++
			continue
		}
		r := compareRow{key: k, a: va, b: vb, inA: inA, inB: inB, rel: math.Inf(1)}
		if inA && inB && va != 0 {
			r.rel = (vb - va) / math.Abs(va)
		}
		name := k[strings.LastIndexByte(k, '/')+1:]
		if d, ok := bounds[name]; ok && inA && inB {
			worse := r.rel
			if d.better == "higher" {
				worse = -worse
			}
			switch {
			case worse > d.bound:
				r.verdict = "REGRESSION"
			case worse < -d.bound:
				r.verdict = "improved"
			}
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		ri, rj := math.Abs(rows[i].rel), math.Abs(rows[j].rel)
		if ri != rj {
			return ri > rj
		}
		return rows[i].key < rows[j].key
	})
	return rows, same
}

// loadFlat reads a JSON file and flattens it to key -> number. A
// benchmark result file flattens to <workload>/<metric>, the one-line
// result to <metric>, and anything else (a stats dump) to the slash-
// joined path of every numeric leaf.
func loadFlat(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	if obj, ok := doc.(map[string]any); ok {
		if _, ok := obj["workloads"]; ok {
			var rf resultFile
			if err := json.Unmarshal(data, &rf); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			for _, w := range rf.Workloads {
				for _, m := range w.Metrics {
					out[w.Name+"/"+m.Name] = m.Value
				}
			}
			return out, nil
		}
		if ms, ok := obj["metrics"].(map[string]any); ok {
			for name, v := range ms {
				if m, ok := v.(map[string]any); ok {
					if n, ok := m["value"].(json.Number); ok {
						out[name], _ = n.Float64()
					}
				}
			}
			return out, nil
		}
	}
	flatten("", doc, out)
	return out, nil
}

func flatten(prefix string, v any, out map[string]float64) {
	join := func(k string) string {
		if prefix == "" {
			return k
		}
		return prefix + "/" + k
	}
	switch t := v.(type) {
	case json.Number:
		out[prefix], _ = t.Float64()
	case map[string]any:
		for k, c := range t {
			flatten(join(k), c, out)
		}
	case []any:
		for i, c := range t {
			flatten(join(strconv.Itoa(i)), c, out)
		}
	}
}
