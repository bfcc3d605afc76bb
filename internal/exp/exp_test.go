package exp

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
)

func quick() Options { return Options{Quick: true} }

func runID(t *testing.T, id string, o Options) *Result {
	t.Helper()
	rs, err := Run([]string{id}, o)
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

func TestRegistryComplete(t *testing.T) {
	// Every evaluation artefact of the paper must be registered.
	want := []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "valgrid", "valbgp", "headline"}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(IDs()) {
		t.Fatal("All and IDs disagree")
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := Run([]string{"fig5", "fig99"}, quick()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	rs, err := Run(IDs(), quick())
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range All() {
		res := rs[i]
		t.Run(e.ID, func(t *testing.T) {
			if res.ID != e.ID {
				t.Fatalf("result id %q for experiment %q", res.ID, e.ID)
			}
			if len(res.Series) == 0 && len(res.Rows) == 0 {
				t.Fatalf("%s produced no data", e.ID)
			}
			out := Format(res)
			if !strings.Contains(out, e.ID) {
				t.Fatalf("%s format missing id:\n%s", e.ID, out)
			}
		})
	}
}

// TestGoldenOutput holds every registered experiment, run through Run in
// quick mode, to the committed output of `hsumma-run exp all -quick` (text,
// -format csv, and -uncalibrated) byte for byte. A change that moves a
// printed number regenerates the file on purpose, e.g.
// `go run ./cmd/hsumma-run exp all -quick > internal/exp/testdata/all_quick.txt`.
// The plan experiment prints this process's planner cache counters, so each
// file is compared in a fresh process, as the command runs.
func TestGoldenOutput(t *testing.T) {
	cases := map[string]struct {
		o   Options
		csv bool
	}{
		"all_quick.txt":              {quick(), false},
		"all_quick.csv":              {quick(), true},
		"all_quick_uncalibrated.txt": {Options{Quick: true, Uncalibrated: true}, false},
	}
	if file := os.Getenv("EXP_GOLDEN_FILE"); file != "" {
		c := cases[file]
		rs, err := Run(IDs(), c.o)
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, r := range rs {
			if c.csv {
				got.WriteString(CSV(r))
			} else {
				got.WriteString(Format(r) + "\n")
			}
		}
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if diff := firstDiff(got.String(), string(want)); diff != "" {
			t.Fatalf("%s: %s", file, diff)
		}
		return
	}
	for file := range cases {
		t.Run(file, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestGoldenOutput$")
			cmd.Env = append(os.Environ(), "EXP_GOLDEN_FILE="+file)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
		})
	}
}

// firstDiff describes the first line where got and want differ, or returns
// "" when they are equal.
func firstDiff(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			line := func(ls []string) string {
				if i < len(ls) {
					return ls[i]
				}
				return "<end>"
			}
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, line(g), line(w))
		}
	}
}

// Run simulates each distinct point once, however many experiments declare
// it: fig8, fig9's p=256 row and headline share their quick points, and in
// full mode fig7's p=128 row is fig6 and fig9's p=16384 row and headline
// are fig8 and fig9 again.
func TestEachPointSimulatedOnce(t *testing.T) {
	// all counts the simulations the per-figure sweeps made before points
	// were shared, distinct the points Run simulates.
	for _, c := range []struct {
		o             Options
		all, distinct int
	}{{Options{}, 181, 127}, {quick(), 83, 56}} {
		all, seen := 0, map[point]bool{}
		for _, e := range All() {
			if e.points == nil {
				continue
			}
			for _, pt := range e.points(c.o) {
				all++
				seen[pt] = true
			}
		}
		if all != c.all || len(seen) != c.distinct {
			t.Errorf("%+v: %d points, %d distinct; want %d, %d", c.o, all, len(seen), c.all, c.distinct)
		}
	}

	fig9 := map[point]bool{}
	for _, pt := range registry["fig9"].points(quick()) {
		fig9[pt] = true
	}
	fig8, headline := registry["fig8"].points(quick()), registry["headline"].points(quick())
	if len(fig8) != len(headline) {
		t.Fatalf("quick fig8 has %d points, headline %d", len(fig8), len(headline))
	}
	for i, pt := range fig8 {
		if pt != headline[i] || !fig9[pt] {
			t.Fatalf("quick fig8 point %+v is not headline's %+v, or not in fig9", pt, headline[i])
		}
	}

	_, n, err := run(IDs(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if n != 56 {
		t.Fatalf("quick exp all made %d simulations, want one per distinct point (56)", n)
	}
}

func TestFig5UShapeAndDegeneracy(t *testing.T) {
	res := runID(t, "fig5", quick())
	var hs, su Series
	for _, s := range res.Series {
		switch s.Name {
		case "HSUMMA comm":
			hs = s
		case "SUMMA comm":
			su = s
		}
	}
	if len(hs.Y) < 3 {
		t.Fatalf("too few sweep points: %d", len(hs.Y))
	}
	// Endpoints must equal SUMMA; some interior point must beat it.
	if rel(hs.Y[0], su.Y[0]) > 1e-9 {
		t.Fatalf("G=1 endpoint %g != SUMMA %g", hs.Y[0], su.Y[0])
	}
	last := len(hs.Y) - 1
	if rel(hs.Y[last], su.Y[last]) > 1e-9 {
		t.Fatalf("G=p endpoint %g != SUMMA %g", hs.Y[last], su.Y[last])
	}
	best := hs.Y[0]
	for _, y := range hs.Y {
		if y < best {
			best = y
		}
	}
	if best >= su.Y[0] {
		t.Fatal("no interior win on the calibrated Grid'5000 machine")
	}
}

func TestFig8ReportsTotals(t *testing.T) {
	res := runID(t, "fig8", quick())
	names := map[string]bool{}
	for _, s := range res.Series {
		names[s.Name] = true
	}
	for _, want := range []string{"HSUMMA comm", "SUMMA comm", "HSUMMA total", "SUMMA total"} {
		if !names[want] {
			t.Fatalf("fig8 missing series %q (have %v)", want, names)
		}
	}
}

func TestFig10MinimumAtSqrtP(t *testing.T) {
	res := runID(t, "fig10", quick())
	var hs Series
	for _, s := range res.Series {
		if s.Name == "HSUMMA comm" {
			hs = s
		}
	}
	bi := 0
	for i, y := range hs.Y {
		if y < hs.Y[bi] {
			bi = i
		}
	}
	if bi == 0 || bi == len(hs.Y)-1 {
		t.Fatalf("exascale minimum at boundary (G=%g)", hs.X[bi])
	}
}

func TestValidationVerdicts(t *testing.T) {
	for _, id := range []string{"valgrid", "valbgp"} {
		res := runID(t, id, Options{})
		if len(res.Findings) == 0 || !strings.Contains(res.Findings[0], "outperform") {
			t.Fatalf("%s verdict missing: %v", id, res.Findings)
		}
	}
}

func TestTablesIncludeOptimalRow(t *testing.T) {
	res := runID(t, "table2", quick())
	found := false
	for _, row := range res.Rows {
		if strings.Contains(row[0], "√p") {
			found = true
		}
	}
	if !found {
		t.Fatal("Table II missing the G=√p row")
	}
}

func TestCSVOutput(t *testing.T) {
	res := runID(t, "fig10", quick())
	csv := CSV(res)
	if !strings.HasPrefix(csv, "experiment,series,x,y\n") {
		t.Fatal("csv header missing")
	}
	if !strings.Contains(csv, "fig10,HSUMMA comm,") {
		t.Fatalf("csv content missing:\n%s", csv[:200])
	}
}

func TestUncalibratedMode(t *testing.T) {
	// The published-parameter mode must also run and still show the
	// U-shape endpoints property.
	res := runID(t, "fig8", Options{Quick: true, Uncalibrated: true})
	if len(res.Series) == 0 {
		t.Fatal("no data in uncalibrated mode")
	}
	// The machine line must name the published (non-calibrated) preset.
	found := false
	for _, f := range res.Findings {
		if strings.Contains(f, "machine:") {
			found = true
			if strings.Contains(f, "calibrated") {
				t.Fatalf("uncalibrated run reports a calibrated machine: %s", f)
			}
		}
	}
	if !found {
		t.Fatal("no machine finding reported")
	}
}

func rel(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b == 0 {
		return d
	}
	return d / b
}

// The eq. 10 verdict follows the broadcast: on every preset, under both of
// the paper's broadcasts, at the CLI's default point, the validation's
// "interior minimum predicted" holds iff the cost table's optimum G lies
// strictly between 1 and p.
func TestMinimumVerdictMatchesTableOptimum(t *testing.T) {
	for _, name := range []string{"grid5000", "grid5000-cal", "bgp", "bgp-cal", "exascale"} {
		pf, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range [][3]int{{65536, 16384, 256}, {8192, 128, 64}, {4096, 256, 64}} {
			for _, bc := range []model.Broadcast{model.BinomialTree{}, model.VanDeGeijn{}} {
				par := model.Params{N: pt[0], P: pt[1], B: pt[2], Machine: pf.Model, Bcast: bc}
				g, _ := model.OptimalG(par, nil)
				interior := g > 1 && g < par.P
				if model.MinimumAtSqrtP(par) != interior {
					t.Errorf("%s n=%d p=%d b=%d %s: interior minimum predicted %v, table optimum G=%d",
						name, par.N, par.P, par.B, bc.Name(), model.MinimumAtSqrtP(par), g)
				}
			}
		}
	}
}
