package exp

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
)

func quick() Options { return Options{Quick: true} }

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
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(quick())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
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

func TestFig5UShapeAndDegeneracy(t *testing.T) {
	res, err := registry["fig5"].Run(quick())
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := registry["fig8"].Run(quick())
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := registry["fig10"].Run(quick())
	if err != nil {
		t.Fatal(err)
	}
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
		res, err := registry[id].Run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Findings) == 0 || !strings.Contains(res.Findings[0], "outperform") {
			t.Fatalf("%s verdict missing: %v", id, res.Findings)
		}
	}
}

func TestTablesIncludeOptimalRow(t *testing.T) {
	res, err := registry["table2"].Run(quick())
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := registry["fig10"].Run(quick())
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := registry["fig8"].Run(Options{Quick: true, Uncalibrated: true})
	if err != nil {
		t.Fatal(err)
	}
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
