package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// figureConfig resolves the machine and geometry for the Grid'5000 and
// BG/P figure experiments in either fidelity mode.
type figureConfig struct {
	pf    machine.Platform
	grid  topo.Grid
	n     int
	block int
}

// platforms are the Grid'5000 and BG/P machines of o: the SUMMA-fitted
// presets, or with o.Uncalibrated the paper's published ones.
func platforms(o Options) (grid5000, bgp machine.Platform) {
	if o.Uncalibrated {
		return machine.Grid5000(), machine.BlueGeneP()
	}
	return machine.Grid5000Calibrated(), machine.BlueGenePCalibrated()
}

func grid5000Config(o Options, fullBlock int) figureConfig {
	pf, _ := platforms(o)
	if o.Quick {
		return figureConfig{pf: pf, grid: topo.Grid{S: 4, T: 8}, n: 1024, block: fullBlock / 8}
	}
	return figureConfig{pf: pf, grid: topo.Grid{S: 8, T: 16}, n: 8192, block: fullBlock}
}

func bgpConfig(o Options) figureConfig {
	_, pf := platforms(o)
	if o.Quick {
		return figureConfig{pf: pf, grid: topo.Grid{S: 16, T: 16}, n: 4096, block: 64}
	}
	return figureConfig{pf: pf, grid: topo.Grid{S: 128, T: 128}, n: 65536, block: 256}
}

// point is one simulation: SUMMA (zero groups) or HSUMMA at a figure
// configuration, under uniform links or the BG/P torus's hop costs. Points
// compare by value, so experiments sharing one simulate it once (see Run).
type point struct {
	figureConfig
	bcast  sched.Algorithm
	groups topo.Hier
	torus  bool
}

// sims holds the simulated result of every point a Run declared.
type sims map[point]engine.SimResult

func (pt point) simulate() (engine.SimResult, error) {
	vcfg := simnet.VConfig{Model: pt.pf.Model}
	if pt.torus {
		// The torus needs the exact core count; quick mode shrinks the grid.
		tor, err := machine.ForCores(pt.grid.Size())
		if err != nil {
			return engine.SimResult{}, err
		}
		vcfg.LinkCost = simnet.LinkCostFunc(tor.LinkCost)
	}
	spec := engine.Spec{Algorithm: engine.SUMMA, Opts: core.Options{
		N: pt.n, Grid: pt.grid, Groups: pt.groups,
		Knobs: core.Knobs{BlockSize: pt.block, Broadcast: pt.bcast},
	}}
	if pt.groups != (topo.Hier{}) {
		spec.Algorithm = engine.HSUMMA
	}
	res, _, err := engine.Simulate(spec, vcfg, engine.ExecutorAuto)
	return res, err
}

// sweeps lists each configuration's Van de Geijn points: SUMMA, then
// HSUMMA at every power-of-two G that factors the grid.
func sweeps(fcs ...figureConfig) []point {
	var pts []point
	for _, fc := range fcs {
		pts = append(pts, point{figureConfig: fc, bcast: sched.VanDeGeijn})
		for G := 1; G <= fc.grid.Size(); G *= 2 {
			if h, err := topo.FactorGroups(fc.grid, G); err == nil {
				pts = append(pts, point{figureConfig: fc, bcast: sched.VanDeGeijn, groups: h})
			}
		}
	}
	return pts
}

// curve reads pts' simulated comm and total from s, with their G as x.
func (s sims) curve(pts []point) (gs, comm, total []float64) {
	for _, pt := range pts {
		gs = append(gs, float64(pt.groups.Groups()))
		comm = append(comm, s[pt].Comm)
		total = append(total, s[pt].Total)
	}
	return gs, comm, total
}

// atCores is fc on the squarest grid of each core count, full's or in quick
// mode quick's: the rows of a scalability figure.
func atCores(o Options, fc figureConfig, full, quick []int) []figureConfig {
	if o.Quick {
		full = quick
	}
	var fcs []figureConfig
	for _, p := range full {
		g, err := topo.SquarestGrid(p)
		if err != nil {
			panic(err) // the core counts are positive constants
		}
		fc.grid = g
		fcs = append(fcs, fc)
	}
	return fcs
}

func minOf(ys []float64) (int, float64) {
	best, bestV := 0, math.Inf(1)
	for i, y := range ys {
		if y < bestV {
			best, bestV = i, y
		}
	}
	return best, bestV
}

func constSeries(name string, xs []float64, v float64) Series {
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = v
	}
	return Series{Name: name, X: xs, Y: ys}
}

// gSweepFigure is Figure 5, 6 or 8: communication (and with withTotal also
// total) time against the number of groups at cfg's configuration.
func gSweepFigure(e Experiment, title string, cfg func(Options) figureConfig, withTotal bool, paperRatioComm float64) Experiment {
	e.points = func(o Options) []point { return sweeps(cfg(o)) }
	e.render = func(o Options, s sims) (*Result, error) {
		fc := cfg(o)
		pts := sweeps(fc)
		gs, hComm, hTotal := s.curve(pts[1:])
		sComm, sTotal := s[pts[0]].Comm, s[pts[0]].Total
		r := &Result{
			ID: e.ID, Title: title,
			XLabel: "groups", YLabel: "seconds",
			Series: []Series{
				{Name: "HSUMMA comm", X: gs, Y: hComm},
				constSeries("SUMMA comm", gs, sComm),
			},
		}
		if withTotal {
			r.Series = append(r.Series,
				Series{Name: "HSUMMA total", X: gs, Y: hTotal},
				constSeries("SUMMA total", gs, sTotal),
			)
		}
		bi, bv := minOf(hComm)
		r.Findings = append(r.Findings,
			fmt.Sprintf("machine: %s (n=%d, grid %v, b=B=%d)", fc.pf.Name, fc.n, fc.grid, fc.block),
			fmt.Sprintf("SUMMA comm %.3gs; best HSUMMA comm %.3gs at G=%d -> %.2fx less comm",
				sComm, bv, int(gs[bi]), sComm/bv),
		)
		if withTotal {
			_, bt := minOf(hTotal)
			r.Findings = append(r.Findings,
				fmt.Sprintf("SUMMA total %.3gs; best HSUMMA total %.3gs -> %.2fx less overall", sTotal, bt, sTotal/bt))
		}
		if paperRatioComm > 0 {
			r.Findings = append(r.Findings,
				fmt.Sprintf("paper reports %.2fx less comm at this scale", paperRatioComm))
		}
		// Degeneracy check: endpoints equal SUMMA (within numerical noise).
		if len(gs) > 0 && gs[0] == 1 && math.Abs(hComm[0]-sComm) > 1e-9*sComm {
			r.Findings = append(r.Findings, "WARNING: G=1 does not match SUMMA")
		}
		return r, nil
	}
	return e
}

// scalabilityFigure is Figure 7 or 9: comm time against the processor
// count, SUMMA vs HSUMMA at its best G, one sweep per row of atCores.
func scalabilityFigure(e Experiment, title string, base func(Options) figureConfig, full, quick []int) Experiment {
	e.points = func(o Options) []point { return sweeps(atCores(o, base(o), full, quick)...) }
	e.render = func(o Options, s sims) (*Result, error) {
		var xs, sline, hline []float64
		var findings []string
		for _, fc := range atCores(o, base(o), full, quick) {
			pts := sweeps(fc)
			gs, hComm, _ := s.curve(pts[1:])
			sComm := s[pts[0]].Comm
			bi, bv := minOf(hComm)
			p := fc.grid.Size()
			xs = append(xs, float64(p))
			sline = append(sline, sComm)
			hline = append(hline, bv)
			findings = append(findings,
				fmt.Sprintf("p=%d: SUMMA %.3gs, HSUMMA %.3gs (G=%d) -> %.2fx", p, sComm, bv, int(gs[bi]), sComm/bv))
		}
		return &Result{
			ID: e.ID, Title: title,
			XLabel: "processes", YLabel: "seconds",
			Series: []Series{
				{Name: "HSUMMA comm (best G)", X: xs, Y: hline},
				{Name: "SUMMA comm", X: xs, Y: sline},
			},
			Findings: findings,
		}, nil
	}
	return e
}

func init() {
	register(gSweepFigure(Experiment{
		ID:    "fig5",
		Title: "Grid'5000: comm time vs groups, b=B=64, n=8192, p=128",
		Paper: "Figure 5 — HSUMMA U-curve far below SUMMA at small block size",
	}, "Grid'5000 G sweep (b=64)", func(o Options) figureConfig { return grid5000Config(o, 64) }, false, 0))
	register(gSweepFigure(Experiment{
		ID:    "fig6",
		Title: "Grid'5000: comm time vs groups, b=B=512, n=8192, p=128",
		Paper: "Figure 6 — same sweep at the largest block size; paper's best ratio 1.6x (4.53s -> 2.81s)",
	}, "Grid'5000 G sweep (b=512)", func(o Options) figureConfig { return grid5000Config(o, 512) }, false, 1.6))
	// Figure 7's p=128 row is Figure 6's sweep, and Figure 9's last row is
	// Figure 8's: Run simulates each once.
	register(scalabilityFigure(Experiment{
		ID:    "fig7",
		Title: "Grid'5000 scalability: comm time vs p, b=B=512, n=8192",
		Paper: "Figure 7 — SUMMA and HSUMMA converge at small p, HSUMMA ahead at p=128",
	}, "Grid'5000 scalability", func(o Options) figureConfig { return grid5000Config(o, 512) }, []int{16, 32, 64, 128}, []int{16, 32}))
	register(gSweepFigure(Experiment{
		ID:    "fig8",
		Title: "BG/P 16384 cores: execution and comm time vs groups, b=B=256, n=65536",
		Paper: "Figure 8 — SUMMA 50.2s/36.46s; HSUMMA best 21.26s/6.19s at G=512 (2.36x / 5.89x)",
	}, "BG/P G sweep", bgpConfig, true, 5.89))
	register(scalabilityFigure(Experiment{
		ID:    "fig9",
		Title: "BG/P scalability: comm time vs p, b=B=256, n=65536",
		Paper: "Figure 9 — HSUMMA's comm advantage grows from 2048 to 16384 cores",
	}, "BG/P scalability", bgpConfig, []int{2048, 4096, 8192, 16384}, []int{64, 256}))
	register(Experiment{
		ID:     "fig10",
		Title:  "Exascale prediction: time vs groups, p=2^20, n=2^22, b=256",
		Paper:  "Figure 10 — analytic prediction; minimum at G=√p=1024, SUMMA matched at the endpoints",
		render: runFig10,
	})
}

func runFig10(o Options, _ sims) (*Result, error) {
	pf := machine.Exascale()
	par := model.Params{
		N: 1 << 22, P: 1 << 20, B: 256,
		Machine: pf.Model, Bcast: model.VanDeGeijn{},
	}
	if o.Quick {
		// Preserve the interior-minimum regime when scaling down:
		// 2nb/p = 2048 stays below α/β = 6250.
		par.N = 1 << 14
		par.P = 1 << 12
	}
	var xs, comm, total []float64
	for g := 1; g <= par.P; g *= 4 {
		c := model.HSUMMA(par, float64(g))
		xs = append(xs, float64(g))
		comm = append(comm, c.Comm())
		total = append(total, c.Total())
	}
	s := model.SUMMA(par)
	bi, bv := minOf(comm)
	res := &Result{
		ID: "fig10", Title: "Exascale prediction (closed form)",
		XLabel: "groups", YLabel: "seconds",
		Series: []Series{
			{Name: "HSUMMA comm", X: xs, Y: comm},
			constSeries("SUMMA comm", xs, s.Comm()),
		},
		Findings: []string{
			fmt.Sprintf("machine: %s", pf.Name),
			fmt.Sprintf("SUMMA comm %.3gs; HSUMMA best %.3gs at G=%d (√p=%d) -> %.2fx",
				s.Comm(), bv, int(xs[bi]), int(math.Sqrt(float64(par.P))), s.Comm()/bv),
			fmt.Sprintf("computation adds %.3gs identically to both algorithms", s.Compute),
			fmt.Sprintf("minimum condition α/β > 2nb/p: %v", model.MinimumAtSqrtP(par)),
		},
	}
	res.Series = append(res.Series, Series{Name: "HSUMMA total", X: xs, Y: total})
	return res, nil
}
