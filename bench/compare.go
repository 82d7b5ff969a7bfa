package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// runRecord is one run as saved by -out: the input of compare.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
	file     string
}

// saveRecord writes r into dir under a name unique to the run.
func saveRecord(dir string, r runRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, fmt.Sprintf("%s-seed%d-trace%d-*.json", r.Workload, r.Seed, r.Trace))
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadRecords reads every record in dir, ordered by seed then file name,
// which is the order compare pairs runs in.
func loadRecords(dir string) ([]runRecord, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []runRecord
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runRecord
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		r.file = f
		out = append(out, r)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Seed != out[b].Seed {
			return out[a].Seed < out[b].Seed
		}
		return out[a].file < out[b].file
	})
	return out, nil
}

// Compare settings: a side needs minRuns runs to be compared at all, and
// a gain can be claimed only over at least gainPairs pairs, of which the
// change must win winShare.
const (
	minRuns   = 5
	gainPairs = 10
	winShare  = 0.9
)

// verdict is compare's judgement of one (metric, workload) pair.
type verdict struct {
	Metric                        metricDef
	ParentMed, ParentQ1, ParentQ3 float64
	ChangeMed, ChangeQ1, ChangeQ3 float64
	Pairs, Wins                   int
	Verdict                       string
}

// judge applies the comparison rule to one metric. improved: at least
// gainPairs pairs, the change wins winShare of them, and the medians
// differ by more than the parent's interquartile range. regressed: the
// change's median is worse than the parent's by more than the bound.
// unresolved: either side's spread is wider than the bound, unless every
// change run beats every parent run. Per-layer metrics have no bound, so
// they are only ever improved, worsened (the mirror of improved) or
// unchanged.
func judge(def metricDef, parent, change []float64) verdict {
	v := verdict{Metric: def, Pairs: min(len(parent), len(change))}
	v.ParentMed, v.ChangeMed = median(parent), median(change)
	v.ParentQ1, v.ParentQ3 = quartiles(parent)
	v.ChangeQ1, v.ChangeQ3 = quartiles(change)
	better := func(a, b float64) bool { // a better than b
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	losses := 0
	for k := 0; k < v.Pairs; k++ {
		switch {
		case better(change[k], parent[k]):
			v.Wins++
		case better(parent[k], change[k]):
			losses++
		}
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	worse := (v.ChangeMed - v.ParentMed) / math.Abs(v.ParentMed)
	if def.Better == "higher" {
		worse = -worse
	}
	separated := math.Abs(v.ChangeMed-v.ParentMed) > v.ParentQ3-v.ParentQ1
	enough := v.Pairs >= gainPairs
	switch {
	case def.Bound > 0 && math.Max(relIQR(parent), relIQR(change)) > def.Bound && !allBetter:
		v.Verdict = "unresolved"
	case def.Bound > 0 && worse > def.Bound:
		v.Verdict = "regressed"
	case enough && float64(v.Wins) >= winShare*float64(v.Pairs) && separated && worse < 0:
		v.Verdict = "improved"
	case def.Bound == 0 && enough && float64(losses) >= winShare*float64(v.Pairs) && separated && worse > 0:
		v.Verdict = "worsened"
	default:
		v.Verdict = "unchanged"
	}
	return v
}

// compareMain implements `compare PARENT_DIR CHANGE_DIR`: for every
// workload and metric recorded on both sides it prints each side's median
// and quartiles and the verdict. It exits 1 if any end-to-end metric
// regressed, 2 on unusable input.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare PARENT_DIR CHANGE_DIR (each holding -out records)")
		return 2
	}
	var sides [2][]runRecord
	for k, dir := range args {
		recs, err := loadRecords(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
		sides[k] = recs
	}
	code := 0
	compared := 0
	for _, wl := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			pick := func(recs []runRecord) []runRecord {
				var out []runRecord
				for _, r := range recs {
					if r.Workload == wl.name && r.Trace == trace {
						out = append(out, r)
					}
				}
				return out
			}
			p, c := pick(sides[0]), pick(sides[1])
			if len(p) == 0 && len(c) == 0 {
				continue
			}
			if len(p) < minRuns || len(c) < minRuns {
				fmt.Fprintf(w, "%s (trace %d): %d parent and %d change runs; compare needs at least %d a side\n",
					wl.name, trace, len(p), len(c), minRuns)
				code = max(code, 2)
				continue
			}
			compared++
			fmt.Fprintf(w, "%s (trace %d): %d parent runs, %d change runs\n", wl.name, trace, len(p), len(c))
			if min(len(p), len(c)) < gainPairs {
				fmt.Fprintf(w, "  fewer than %d pairs: no gain can be claimed\n", gainPairs)
			}
			fmt.Fprintf(w, "  %-30s %-6s %27s %27s  %s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "verdict")
			for _, d := range defs {
				v := judge(d, values(p, d.Name), values(c, d.Name))
				fmt.Fprintf(w, "  %-30s %-6s %27s %27s  %s (%d/%d pairs won)\n", d.Name, d.Unit,
					fmt.Sprintf("%.4g [%.4g, %.4g]", v.ParentMed, v.ParentQ1, v.ParentQ3),
					fmt.Sprintf("%.4g [%.4g, %.4g]", v.ChangeMed, v.ChangeQ1, v.ChangeQ3),
					v.Verdict, v.Wins, v.Pairs)
				if trace == 0 && v.Verdict == "regressed" {
					code = max(code, 1)
				}
			}
		}
	}
	if compared == 0 && code == 0 {
		fmt.Fprintln(w, "compare: no workload has records on both sides")
		return 2
	}
	return code
}

// values extracts one metric from records, in record order; a record
// missing it contributes NaN, which no comparison favours.
func values(recs []runRecord, name string) []float64 {
	out := make([]float64, len(recs))
	for k, r := range recs {
		m, ok := r.Result.Metrics[name]
		out[k] = math.NaN()
		if ok {
			out[k] = m.Value
		}
	}
	return out
}
