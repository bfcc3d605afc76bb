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

func grid5000Config(o Options, fullBlock int) figureConfig {
	pf := machine.Grid5000Calibrated()
	if o.Uncalibrated {
		pf = machine.Grid5000()
	}
	if o.Quick {
		return figureConfig{pf: pf, grid: topo.Grid{S: 4, T: 8}, n: 1024, block: fullBlock / 8}
	}
	return figureConfig{pf: pf, grid: topo.Grid{S: 8, T: 16}, n: 8192, block: fullBlock}
}

func bgpConfig(o Options) figureConfig {
	pf := machine.BlueGenePCalibrated()
	if o.Uncalibrated {
		pf = machine.BlueGeneP()
	}
	if o.Quick {
		return figureConfig{pf: pf, grid: topo.Grid{S: 16, T: 16}, n: 4096, block: 64}
	}
	return figureConfig{pf: pf, grid: topo.Grid{S: 128, T: 128}, n: 65536, block: 256}
}

// gSweep simulates SUMMA once and HSUMMA for every feasible power-of-two
// group count, returning (G values, HSUMMA comm, HSUMMA total, SUMMA comm,
// SUMMA total).
func gSweep(fc figureConfig, bcast sched.Algorithm) (gs []float64, hComm, hTotal []float64, sComm, sTotal float64, err error) {
	vcfg := simnet.VConfig{Model: fc.pf.Model}
	spec := engine.Spec{Algorithm: engine.SUMMA, Opts: core.Options{
		N: fc.n, Grid: fc.grid, Knobs: core.Knobs{BlockSize: fc.block, Broadcast: bcast},
	}}
	su, _, err := engine.Simulate(spec, vcfg, engine.ExecutorAuto)
	if err != nil {
		return nil, nil, nil, 0, 0, err
	}
	spec.Algorithm = engine.HSUMMA
	for G := 1; G <= fc.grid.Size(); G *= 2 {
		h, ferr := topo.FactorGroups(fc.grid, G)
		if ferr != nil {
			continue
		}
		spec.Opts.Groups = h
		res, _, herr := engine.Simulate(spec, vcfg, engine.ExecutorAuto)
		if herr != nil {
			return nil, nil, nil, 0, 0, herr
		}
		gs = append(gs, float64(G))
		hComm = append(hComm, res.Comm)
		hTotal = append(hTotal, res.Total)
	}
	return gs, hComm, hTotal, su.Comm, su.Total, nil
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

// figGSweep implements Figures 5, 6 and 8: communication (and for Figure 8
// also total) time against the number of groups.
func figGSweep(id, title string, fc figureConfig, withTotal bool, paperRatioComm float64) (*Result, error) {
	gs, hComm, hTotal, sComm, sTotal, err := gSweep(fc, sched.VanDeGeijn)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID: id, Title: title,
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
	if len(gs) > 0 && gs[0] == 1 {
		if math.Abs(hComm[0]-sComm) > 1e-9*sComm {
			r.Findings = append(r.Findings, "WARNING: G=1 does not match SUMMA")
		}
	}
	return r, nil
}

// scalability implements Figures 7 and 9: communication time against the
// processor count, SUMMA vs HSUMMA at its per-p best group count.
func scalability(id, title string, cores []int, mkConfig func(p int) (figureConfig, error)) (*Result, error) {
	var xs, sline, hline []float64
	var findings []string
	for _, p := range cores {
		fc, err := mkConfig(p)
		if err != nil {
			return nil, err
		}
		gs, hComm, _, sComm, _, err := gSweep(fc, sched.VanDeGeijn)
		if err != nil {
			return nil, err
		}
		bi, bv := minOf(hComm)
		xs = append(xs, float64(p))
		sline = append(sline, sComm)
		hline = append(hline, bv)
		findings = append(findings,
			fmt.Sprintf("p=%d: SUMMA %.3gs, HSUMMA %.3gs (G=%d) -> %.2fx", p, sComm, bv, int(gs[bi]), sComm/bv))
	}
	return &Result{
		ID: id, Title: title,
		XLabel: "processes", YLabel: "seconds",
		Series: []Series{
			{Name: "HSUMMA comm (best G)", X: xs, Y: hline},
			{Name: "SUMMA comm", X: xs, Y: sline},
		},
		Findings: findings,
	}, nil
}

func init() {
	register(Experiment{
		ID:    "fig5",
		Title: "Grid'5000: comm time vs groups, b=B=64, n=8192, p=128",
		Paper: "Figure 5 — HSUMMA U-curve far below SUMMA at small block size",
		Run: func(o Options) (*Result, error) {
			return figGSweep("fig5", "Grid'5000 G sweep (b=64)", grid5000Config(o, 64), false, 0)
		},
	})
	register(Experiment{
		ID:    "fig6",
		Title: "Grid'5000: comm time vs groups, b=B=512, n=8192, p=128",
		Paper: "Figure 6 — same sweep at the largest block size; paper's best ratio 1.6x (4.53s -> 2.81s)",
		Run: func(o Options) (*Result, error) {
			return figGSweep("fig6", "Grid'5000 G sweep (b=512)", grid5000Config(o, 512), false, 1.6)
		},
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Grid'5000 scalability: comm time vs p, b=B=512, n=8192",
		Paper: "Figure 7 — SUMMA and HSUMMA converge at small p, HSUMMA ahead at p=128",
		Run: func(o Options) (*Result, error) {
			cores := []int{16, 32, 64, 128}
			if o.Quick {
				cores = []int{16, 32}
			}
			return scalability("fig7", "Grid'5000 scalability", cores, func(p int) (figureConfig, error) {
				fc := grid5000Config(o, 512)
				g, err := topo.SquarestGrid(p)
				if err != nil {
					return figureConfig{}, err
				}
				fc.grid = g
				if o.Quick {
					fc.n = 1024
					fc.block = 64
				}
				return fc, nil
			})
		},
	})
	register(Experiment{
		ID:    "fig8",
		Title: "BG/P 16384 cores: execution and comm time vs groups, b=B=256, n=65536",
		Paper: "Figure 8 — SUMMA 50.2s/36.46s; HSUMMA best 21.26s/6.19s at G=512 (2.36x / 5.89x)",
		Run: func(o Options) (*Result, error) {
			return figGSweep("fig8", "BG/P G sweep", bgpConfig(o), true, 5.89)
		},
	})
	register(Experiment{
		ID:    "fig9",
		Title: "BG/P scalability: comm time vs p, b=B=256, n=65536",
		Paper: "Figure 9 — HSUMMA's comm advantage grows from 2048 to 16384 cores",
		Run: func(o Options) (*Result, error) {
			cores := []int{2048, 4096, 8192, 16384}
			if o.Quick {
				cores = []int{64, 256}
			}
			return scalability("fig9", "BG/P scalability", cores, func(p int) (figureConfig, error) {
				fc := bgpConfig(o)
				g, err := topo.SquarestGrid(p)
				if err != nil {
					return figureConfig{}, err
				}
				fc.grid = g
				return fc, nil
			})
		},
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Exascale prediction: time vs groups, p=2^20, n=2^22, b=256",
		Paper: "Figure 10 — analytic prediction; minimum at G=√p=1024, SUMMA matched at the endpoints",
		Run:   runFig10,
	})
}

func runFig10(o Options) (*Result, error) {
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
