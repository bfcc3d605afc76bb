package simalg_test

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// Config is these tests' shorthand for one virtual run: a spec's options
// beside the virtual-world settings, split into the (Spec, VConfig,
// Executor) triple engine.Simulate takes.
type Config struct {
	Shape  matrix.Shape
	N      int
	Grid   topo.Grid
	Groups topo.Hier
	core.Knobs
	Levels     []core.Level
	Machine    machine.Model
	Contention simnet.ContentionFunc
	LinkCost   simnet.LinkCostFunc
	Executor   engine.Executor
}

func (cfg Config) spec(alg engine.Algorithm) engine.Spec {
	return engine.Spec{
		Algorithm: alg,
		Opts:      core.Options{Shape: cfg.Shape, N: cfg.N, Grid: cfg.Grid, Groups: cfg.Groups, Knobs: cfg.Knobs},
		Levels:    cfg.Levels,
	}
}

// RunStats simulates alg under cfg.
func RunStats(cfg Config, alg engine.Algorithm) (engine.SimResult, []simnet.VRankStats, error) {
	return engine.Simulate(cfg.spec(alg), simnet.VConfig{
		Model: cfg.Machine, Contention: cfg.Contention, LinkCost: cfg.LinkCost,
	}, cfg.Executor)
}

func runAlg(cfg Config, alg engine.Algorithm) (engine.SimResult, error) {
	res, _, err := RunStats(cfg, alg)
	return res, err
}

func SUMMA(cfg Config) (engine.SimResult, error)  { return runAlg(cfg, engine.SUMMA) }
func HSUMMA(cfg Config) (engine.SimResult, error) { return runAlg(cfg, engine.HSUMMA) }
func Cannon(cfg Config) (engine.SimResult, error) { return runAlg(cfg, engine.Cannon) }
