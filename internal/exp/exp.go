// Package exp is the experiment harness: one registered experiment per
// table and figure of the paper's evaluation (Tables I–II, Figures 5–10),
// plus the two model-validation checks (Sections V-A-1, V-B-1) and the
// headline-ratio summary (Section VI). Each experiment regenerates the
// series or rows the paper reports, from the simulator (figures), the
// closed-form model (tables, exascale) or both.
//
// Experiments run in two fidelity modes: Full reproduces the paper's exact
// configuration (p up to 16384), Quick scales the same experiment down for
// use in the test suite. Machine parameters come from internal/machine;
// by default the measurement-driven figures (5–9) use the calibrated
// presets (see machine.BlueGenePCalibrated) and the prediction figure (10)
// uses the published exascale parameters, with the pure published-parameter
// variant available via Options.Uncalibrated.
package exp

import (
	"fmt"
	"sort"
	"strings"
)

// Options selects the fidelity and machine variant of an experiment run.
type Options struct {
	// Quick runs a scaled-down configuration (small grids) so the whole
	// registry executes in seconds — used by tests. Full mode (false)
	// reproduces the paper's configuration.
	Quick bool
	// Uncalibrated uses the paper's published Hockney parameters instead
	// of the SUMMA-fitted effective machines for Figures 5–9.
	Uncalibrated bool
}

// Series is one plotted line: Y[i] is the value at X[i].
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Result is what an experiment produces: series (figures) and/or rows
// (tables), plus free-form findings such as headline ratios.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Header/Rows hold tabular output (Tables I/II, validations).
	Header []string
	Rows   [][]string
	// Findings are one-line conclusions (e.g. ratios vs the paper's).
	Findings []string
}

// Experiment is a registered, runnable reproduction artefact.
type Experiment struct {
	ID    string
	Title string
	// Paper describes what the paper's artefact shows, for the CLI list.
	Paper string
	Run   func(Options) (*Result, error)
}

var registry = map[string]Experiment{}
var order []string

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
	order = append(order, e.ID)
}

// ByID returns a registered experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("exp: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return e, nil
}

// IDs lists registered experiment identifiers in registration order.
func IDs() []string {
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// All returns every experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, 0, len(order))
	for _, id := range order {
		out = append(out, registry[id])
	}
	return out
}

// Format renders a result as aligned ASCII: findings, table, then series
// as columns.
func Format(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "   %s\n", f)
	}
	if len(r.Rows) > 0 {
		writeTable(&b, r.Header, r.Rows)
	}
	if len(r.Series) > 0 {
		writeSeries(&b, r)
	}
	return b.String()
}

func writeTable(b *strings.Builder, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

func writeSeries(b *strings.Builder, r *Result) {
	// Collect the union of X values to print one row per X.
	xset := map[float64]bool{}
	for _, s := range r.Series {
		for _, x := range s.X {
			xset[x] = true
		}
	}
	xs := make([]float64, 0, len(xset))
	for x := range xset {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	header := []string{r.XLabel}
	for _, s := range r.Series {
		header = append(header, s.Name+" ("+r.YLabel+")")
	}
	rows := make([][]string, 0, len(xs))
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range r.Series {
			val := ""
			for i, sx := range s.X {
				if sx == x {
					val = fmt.Sprintf("%.4g", s.Y[i])
					break
				}
			}
			row = append(row, val)
		}
		rows = append(rows, row)
	}
	writeTable(b, header, rows)
}

func trimFloat(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

// CSV renders the series of a result as comma-separated values, one line
// per (series, x, y) triple — convenient for external plotting.
func CSV(r *Result) string {
	var b strings.Builder
	b.WriteString("experiment,series,x,y\n")
	for _, s := range r.Series {
		for i := range s.X {
			fmt.Fprintf(&b, "%s,%s,%g,%g\n", r.ID, s.Name, s.X[i], s.Y[i])
		}
	}
	return b.String()
}
