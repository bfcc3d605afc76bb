package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// compareMain implements `bench compare A.json B.json`: per workload and
// end-to-end metric it prints both values, how much worse B is than A as a
// share of A, and the metric's bound. A difference wider than the bound in
// either direction is marked unresolved — two runs of one commit that far
// apart cannot tell a later change from noise — and makes the exit code 1.
// Both files are suites (`bench --all`) or single-workload results.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, errA := loadSuite(args[0])
	b, errB := loadSuite(args[1])
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	unresolved := 0
	fmt.Fprintf(w, "%-13s %-10s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, name := range a.workloadNames() {
		rb, ok := b.Workloads[name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			va, vb := a.Workloads[name].EndToEnd[d.Name].Value, rb.EndToEnd[d.Name].Value
			worse := worseBy(d, va, vb)
			mark := ""
			if math.Abs(worse) > d.Bound {
				mark = "  unresolved"
				unresolved++
			}
			fmt.Fprintf(w, "%-13s %-10s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", name, d.Name, va, vb, 100*worse, 100*d.Bound, mark)
		}
	}
	if unresolved > 0 {
		fmt.Fprintf(w, "%d differences wider than their bound\n", unresolved)
		return 1
	}
	return 0
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction (positive = worse).
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// loadSuite reads a suite, or wraps a single workload's result in one.
func loadSuite(path string) (suite, error) {
	var s suite
	if err := readJSON(path, &s); err != nil {
		return suite{}, err
	}
	if s.Workloads == nil {
		var r result
		if err := readJSON(path, &r); err != nil {
			return suite{}, err
		}
		if r.Workload == "" {
			return suite{}, fmt.Errorf("%s holds neither a suite nor a workload result", path)
		}
		s.Workloads = map[string]result{r.Workload: r}
	}
	return s, nil
}
