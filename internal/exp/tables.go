package exp

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/model"
)

// tableParams is the configuration the cost tables are evaluated at: the
// paper's tables are symbolic, so we print both the symbolic factors and
// their value at the BG/P experiment point, where the comparison matters.
func tableParams(o Options, bc model.Broadcast) model.Params {
	par := model.Params{N: 65536, P: 16384, B: 256, Machine: machine.BlueGeneP().Model, Bcast: bc}
	if o.Quick {
		par.N, par.P, par.B = 4096, 256, 64
	}
	return par
}

// validationParams is one of the paper's model-validation points: the
// platform's Hockney parameters under the Van de Geijn broadcast.
func validationParams(pf machine.Platform, n, p, b int) model.Params {
	return model.Params{N: n, P: p, B: b, Machine: pf.Model, Bcast: model.VanDeGeijn{}}
}

// Model evaluates the closed-form cost model at one point and reports it
// the way the validation and table experiments do: the eq. 10 condition
// with its verdict, then SUMMA against HSUMMA at the tabulated G with the
// predicted optimum. machineName labels the validation report.
func Model(machineName string, par model.Params) []*Result {
	return []*Result{
		runValidation("model", machineName, par),
		runTable("model", fmt.Sprintf("cost model (%s broadcast)", par.Bcast.Name()), par),
	}
}

func runTable(id, title string, par model.Params) *Result {
	sq := math.Sqrt(float64(par.P))
	r := &Result{
		ID: id, Title: title,
		Header: []string{"algorithm", "comp cost (s)", "latency (s)", "bandwidth (s)", "comm total (s)"},
	}
	row := func(name string, c model.Cost) {
		r.Rows = append(r.Rows, []string{
			name,
			fmt.Sprintf("%.4g", c.Compute),
			fmt.Sprintf("%.4g", c.Latency),
			fmt.Sprintf("%.4g", c.Bandwidth),
			fmt.Sprintf("%.4g", c.Comm()),
		})
	}
	row("SUMMA", model.SUMMA(par))
	// One row per G: a listed G equal to √p prints once, under the √p label.
	seen := map[float64]bool{}
	for _, g := range []float64{4, 16, sq, float64(par.P) / 4} {
		if g < 1 || g > float64(par.P) || seen[g] {
			continue
		}
		seen[g] = true
		label := fmt.Sprintf("HSUMMA G=%d", int(g))
		if g == sq {
			label = fmt.Sprintf("HSUMMA G=√p=%d", int(g))
		}
		row(label, model.HSUMMA(par, g))
	}
	best, bc2 := model.OptimalG(par, nil)
	r.Findings = []string{
		fmt.Sprintf("evaluated at n=%d, p=%d, b=B=%d on %v", par.N, par.P, par.B, par.Machine),
		fmt.Sprintf("model optimum: G=%d with comm %.4gs (SUMMA %.4gs)", best, bc2.Comm(), model.SUMMA(par).Comm()),
		"symbolic factors: see Tables I/II of the paper; these rows are their numeric evaluation",
	}
	return r
}

func runValidation(id, machineName string, par model.Params) *Result {
	ratio := par.Machine.Alpha / par.Machine.Beta
	threshold := 2 * float64(par.N) * float64(par.B) / float64(par.P)
	minAt := model.MinimumAtSqrtP(par)
	sq := math.Sqrt(float64(par.P))
	r := &Result{
		ID:     id,
		Title:  fmt.Sprintf("model validation on %s", machineName),
		Header: []string{"quantity", "value"},
		Rows: [][]string{
			{"alpha (s)", fmt.Sprintf("%.3g", par.Machine.Alpha)},
			{"beta (s/elem)", fmt.Sprintf("%.3g", par.Machine.Beta)},
			{"alpha/beta", fmt.Sprintf("%.4g", ratio)},
			{"2nb/p", fmt.Sprintf("%.4g", threshold)},
			{"interior minimum predicted", fmt.Sprintf("%v", minAt)},
			{"stationary point G=√p", fmt.Sprintf("%.4g", sq)},
			{"T_HS(√p) (s)", fmt.Sprintf("%.4g", model.HSUMMA(par, sq).Comm())},
			{"T_S = T_HS(1) = T_HS(p) (s)", fmt.Sprintf("%.4g", model.SUMMA(par).Comm())},
		},
	}
	verdict := "HSUMMA predicted to outperform SUMMA (paper's conclusion)"
	switch _, vdg := par.Bcast.(model.VanDeGeijn); {
	case !vdg:
		verdict = fmt.Sprintf("%s broadcast at B=b: T_HS is flat in G (eq. 10 is Van de Geijn's condition); every G costs what SUMMA does", par.Bcast.Name())
	case !minAt:
		verdict = "G=√p is a maximum; HSUMMA falls back to G∈{1,p} (same cost as SUMMA)"
	}
	r.Findings = []string{verdict}
	return r
}

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Table I: SUMMA vs HSUMMA cost, binomial-tree broadcast",
		Paper: "Table I — latency/bandwidth factor comparison under the binomial model",
		render: func(o Options, _ sims) (*Result, error) {
			return runTable("table1", "Table I (binomial broadcast)", tableParams(o, model.BinomialTree{})), nil
		},
	})
	register(Experiment{
		ID:    "table2",
		Title: "Table II: SUMMA vs HSUMMA cost, Van de Geijn broadcast",
		Paper: "Table II — including the HSUMMA(G=√p) optimal row",
		render: func(o Options, _ sims) (*Result, error) {
			return runTable("table2", "Table II (Van de Geijn broadcast)", tableParams(o, model.VanDeGeijn{})), nil
		},
	})
	register(Experiment{
		ID:    "valgrid",
		Title: "Model validation on Grid'5000 (paper §V-A-1)",
		Paper: "α/β = 1e5 > 2nb/p = 8192 ⇒ interior minimum exists",
		render: func(Options, sims) (*Result, error) {
			pf := machine.Grid5000()
			return runValidation("valgrid", pf.Name, validationParams(pf, 8192, 128, 64)), nil
		},
	})
	register(Experiment{
		ID:    "valbgp",
		Title: "Model validation on BlueGene/P (paper §V-B-1)",
		Paper: "α/β = 3000 > 2nb/p = 2048 ⇒ interior minimum exists",
		render: func(Options, sims) (*Result, error) {
			pf := machine.BlueGeneP()
			return runValidation("valbgp", pf.Name, validationParams(pf, 65536, 16384, 256)), nil
		},
	})
	register(Experiment{
		ID:     "headline",
		Title:  "Headline ratios (paper §V-B/§VI): comm and total improvements at 2048 and 16384 cores",
		Paper:  "2.08x comm / 1.2x total at 2048; 5.89x comm / 2.36x total at 16384",
		points: func(o Options) []point { return sweeps(headlineRows(o)...) },
		render: runHeadline,
	})
}

// headlineRows are fig9's first and last rows (quick: its p=256 row, which
// is quick fig8), so headline shares every point with them.
func headlineRows(o Options) []figureConfig {
	return atCores(o, bgpConfig(o), []int{2048, 16384}, []int{256})
}

func runHeadline(o Options, s sims) (*Result, error) {
	paper := map[int][2]float64{2048: {2.08, 1.2}, 16384: {5.89, 2.36}} // comm, total
	r := &Result{
		ID:     "headline",
		Title:  "Headline improvement ratios",
		Header: []string{"cores", "SUMMA comm", "HSUMMA comm", "comm ratio", "paper comm", "SUMMA total", "HSUMMA total", "total ratio", "paper total"},
	}
	for _, fc := range headlineRows(o) {
		p := fc.grid.Size()
		pts := sweeps(fc)
		gs, hComm, hTotal := s.curve(pts[1:])
		sComm, sTotal := s[pts[0]].Comm, s[pts[0]].Total
		bi, bv := minOf(hComm)
		_, bt := minOf(hTotal)
		pc, pt := "-", "-"
		if v, ok := paper[p]; ok {
			pc, pt = fmt.Sprintf("%.2fx", v[0]), fmt.Sprintf("%.2fx", v[1])
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", p),
			fmt.Sprintf("%.3g", sComm),
			fmt.Sprintf("%.3g (G=%d)", bv, int(gs[bi])),
			fmt.Sprintf("%.2fx", sComm/bv),
			pc,
			fmt.Sprintf("%.3g", sTotal),
			fmt.Sprintf("%.3g", bt),
			fmt.Sprintf("%.2fx", sTotal/bt),
			pt,
		})
	}
	r.Findings = append(r.Findings,
		"machine: "+bgpConfig(o).pf.Name+" (α fitted to the paper's measured SUMMA comm; HSUMMA ratios are simulator predictions)")
	return r, nil
}
