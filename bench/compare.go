package main

import (
	"fmt"
	"io"
	"os"
)

// comparison is one row of the -compare / -selfcheck table: one workload ×
// end-to-end metric, the change (b) against the parent (a).
type comparison struct {
	workload, metric string
	a, b             [3]float64 // Q1, median, Q3 over each side's runs
	na, nb           int
	ratio            float64 // median b / median a
	worse            float64 // share of a's median by which b is worse (negative: better)
	bound            float64
	verdict          string // ok, worse, unresolved
}

// compareRuns builds the table. A pair is "unresolved" when either side's
// interquartile spread is wider than the bound — the runs cannot tell a
// regression of that size from noise — "worse" when b's median is worse
// than a's by more than the bound, and "ok" otherwise.
func compareRuns(a, b []runResult) []comparison {
	collect := func(runs []runResult, workload, metric string) []float64 {
		var xs []float64
		for _, r := range runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	var rows []comparison
	for _, w := range workloads {
		for _, d := range endToEnd {
			xa, xb := collect(a, w.name, d.name), collect(b, w.name, d.name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := comparison{workload: w.name, metric: d.name, na: len(xa), nb: len(xb), bound: boundOf(d.name)}
			c.a[0], c.a[1], c.a[2] = quartiles(xa)
			c.b[0], c.b[1], c.b[2] = quartiles(xb)
			c.ratio = ratio(c.b[1], c.a[1])
			c.worse = c.ratio - 1
			if !lowerIsBetter(d.name) {
				c.worse = 1 - c.ratio
			}
			switch {
			case spread(xa) > c.bound || spread(xb) > c.bound:
				c.verdict = "unresolved"
			case c.worse > c.bound:
				c.verdict = "worse"
			default:
				c.verdict = "ok"
			}
			rows = append(rows, c)
		}
	}
	return rows
}

// printComparison writes the table and returns how many rows are worse.
func printComparison(w io.Writer, nameA, nameB string, a, b []runResult) int {
	rows := compareRuns(a, b)
	fmt.Fprintf(w, "A = %s, B = %s; each cell is median [Q1, Q3] over the side's runs; ratio = B/A\n", nameA, nameB)
	fmt.Fprintf(w, "%-22s %-13s %4s %-38s %4s %-38s %8s %7s  %s\n", "workload", "metric", "nA", "A", "nB", "B", "ratio", "bound", "verdict")
	worse := 0
	for _, c := range rows {
		cell := func(q [3]float64) string { return fmt.Sprintf("%.5g [%.5g, %.5g]", q[1], q[0], q[2]) }
		fmt.Fprintf(w, "%-22s %-13s %4d %-38s %4d %-38s %8.4f %6.0f%%  %s\n",
			c.workload, c.metric, c.na, cell(c.a), c.nb, cell(c.b), c.ratio, 100*c.bound, c.verdict)
		if c.verdict == "worse" {
			worse++
		}
	}
	return worse
}

// selfCheck runs the suite twice back to back on the same code (A/A) and
// compares the two sets with the benchmark's own bounds: any row that is
// not "ok" means the benchmark cannot resolve its own bound on this host.
func selfCheck(opt options) error {
	opt.trace = false
	var sets [2][]runResult
	for i := range sets {
		fmt.Printf("--- selfcheck set %c\n", 'A'+i)
		runs, err := runSuite(opt)
		if err != nil {
			return err
		}
		sets[i] = runs
		for _, r := range runs {
			if !r.Correct {
				return errFailed
			}
		}
	}
	rows := compareRuns(sets[0], sets[1])
	printComparison(os.Stdout, "set A", "set B", sets[0], sets[1])
	bad := 0
	for _, c := range rows {
		// A/A has no better or worse side: a difference in either
		// direction beyond the bound is noise the bound cannot absorb.
		if c.verdict != "ok" || c.worse < -c.bound {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d workload × metric pairs differ by more than their bound between two runs of the same code", bad)
	}
	return nil
}
