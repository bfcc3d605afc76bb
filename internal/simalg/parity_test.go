package simalg_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topo"
)

// The refactor's key invariant: because the live runtime and the virtual
// communicator execute the *same* algorithm implementations over the same
// broadcast schedules, a simulated run must report per-rank message and
// byte counts identical to a live run of the same configuration. This is
// what makes the simulated figures trustworthy: they time exactly the
// communication pattern the runnable, correctness-verified code performs.

// liveStats executes the algorithm on the goroutine runtime with real data
// and returns the per-rank traffic counters.
func liveStats(t *testing.T, cfg Config, alg engine.Algorithm) []mpi.RankStats {
	t.Helper()
	g := cfg.Grid
	bm, err := dist.NewBlockMap(cfg.N, cfg.N, g)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(cfg.N, cfg.N, 401)
	b := matrix.Random(cfg.N, cfg.N, 402)
	aT, bT := bm.Scatter(a), bm.Scatter(b)
	cT := make([]*matrix.Dense, g.Size())
	for r := range cT {
		cT[r] = matrix.New(bm.LocalRows(), bm.LocalCols())
	}
	spec := cfg.spec(alg)
	stats, err := mpi.RunStats(g.Size(), func(c *mpi.Comm) {
		if e := engine.Run(mpi.AsComm(c), spec, aT[c.Rank()], bT[c.Rank()], cT[c.Rank()]); e != nil {
			panic(e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// While we have real data in hand, make sure the run was also correct:
	// parity of traffic on a wrong answer would prove nothing.
	want := matrix.New(cfg.N, cfg.N)
	core.Reference(want, a, b)
	if d := matrix.MaxAbsDiff(bm.Gather(cT), want); d > 1e-10 {
		t.Fatalf("live %s run off by %g", alg, d)
	}
	return stats
}

func TestLiveSimTrafficParity(t *testing.T) {
	g := topo.Grid{S: 4, T: 4}
	machine := machine.Model{Alpha: 1e-5, Beta: 1e-9, Gamma: 1e-10}
	h22, err := topo.NewHier(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	h41, err := topo.NewHier(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		alg  engine.Algorithm
		cfg  Config
	}{
		{"summa_binomial", engine.SUMMA, Config{N: 16, Grid: g, Knobs: core.Knobs{BlockSize: 2}, Machine: machine}},
		{"summa_vandegeijn", engine.SUMMA, Config{N: 16, Grid: g, Knobs: core.Knobs{BlockSize: 4, Broadcast: sched.VanDeGeijn}, Machine: machine}},
		// Van de Geijn over 4 ranks on 9-element panels (3×3 tiles, b=3):
		// the segment count does not divide the payload, which exercises
		// the shared integer segment split end to end. (The row keeps the
		// name it had when a pipelined chain broadcast covered this.)
		{"summa_chain_segments", engine.SUMMA, Config{N: 12, Grid: g, Knobs: core.Knobs{BlockSize: 3, Broadcast: sched.VanDeGeijn}, Machine: machine}},
		{"hsumma_g4", engine.HSUMMA, Config{N: 16, Grid: g, Knobs: core.Knobs{BlockSize: 2, OuterBlockSize: 4}, Groups: h22, Machine: machine}},
		{"hsumma_skewed_vdg", engine.HSUMMA, Config{N: 16, Grid: g, Knobs: core.Knobs{BlockSize: 2, Broadcast: sched.VanDeGeijn}, Groups: h41, Machine: machine}},
		{"multilevel", engine.Multilevel, Config{N: 16, Grid: g, Knobs: core.Knobs{BlockSize: 2},
			Levels: []core.Level{{I: 2, J: 2, BlockSize: 4}}, Machine: machine}},
		{"cannon", engine.Cannon, Config{N: 16, Grid: g, Machine: machine}},
		{"fox", engine.Fox, Config{N: 16, Grid: g, Machine: machine}},
		{"fox_vandegeijn", engine.Fox, Config{N: 16, Grid: g, Knobs: core.Knobs{Broadcast: sched.VanDeGeijn}, Machine: machine}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			live := liveStats(t, c.cfg, c.alg)
			_, sim, err := RunStats(c.cfg, c.alg)
			if err != nil {
				t.Fatal(err)
			}
			if len(live) != len(sim) {
				t.Fatalf("rank counts differ: live %d, sim %d", len(live), len(sim))
			}
			for r := range live {
				if live[r].SentMessages != sim[r].SentMessages {
					t.Errorf("rank %d: live sent %d messages, sim %d", r, live[r].SentMessages, sim[r].SentMessages)
				}
				if live[r].SentBytes != sim[r].SentBytes {
					t.Errorf("rank %d: live sent %d bytes, sim %d", r, live[r].SentBytes, sim[r].SentBytes)
				}
			}
			if t.Failed() {
				t.Logf("live: %+v", live)
				t.Logf("sim : %+v", sim)
			}
		})
	}
}

// The aggregate invariant the paper states ("the amount of data sent is the
// same as in SUMMA") must hold identically in both execution modes.
func TestParityAcrossGroupCounts(t *testing.T) {
	g := topo.Grid{S: 4, T: 4}
	machine := machine.Model{Alpha: 1e-5, Beta: 1e-9}
	for _, G := range topo.ValidGroupCounts(g) {
		G := G
		t.Run(fmt.Sprintf("G%d", G), func(t *testing.T) {
			h, err := topo.FactorGroups(g, G)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{N: 16, Grid: g, Knobs: core.Knobs{BlockSize: 2}, Groups: h, Machine: machine}
			live := liveStats(t, cfg, engine.HSUMMA)
			_, sim, err := RunStats(cfg, engine.HSUMMA)
			if err != nil {
				t.Fatal(err)
			}
			for r := range live {
				if live[r].SentMessages != sim[r].SentMessages || live[r].SentBytes != sim[r].SentBytes {
					t.Fatalf("G=%d rank %d: live (%d msgs, %d B) != sim (%d msgs, %d B)", G, r,
						live[r].SentMessages, live[r].SentBytes, sim[r].SentMessages, sim[r].SentBytes)
				}
			}
		})
	}
}

// A three-stage hierarchy against its traffic in closed form, rank by rank.
// At stage k a row's A panel crosses one communicator per combination of
// the coarser column digits — every coarser group already holds its copy —
// so S·ΠJ_{<k} communicators of J_k ranks broadcast per step, K/w_k steps;
// B's likewise with I for J. A binomial broadcast over q ranks is q−1
// sends of the whole panel, and because the pivot owner visits every grid
// column and row equally often, every rank is every broadcast's root,
// relay and leaf equally often: each rank sends exactly 1/p of the total.
func TestThreeLevelTrafficClosedForm(t *testing.T) {
	const n, s, b = 256, 8, 4
	g := topo.Grid{S: s, T: s}
	levels := []core.Level{{I: 2, J: 2, BlockSize: 16}, {I: 2, J: 2, BlockSize: 8}}
	var messages, bytes int64
	coarserI, coarserJ := 1, 1
	for _, st := range append(levels[:2:2], core.Level{I: 2, J: 2, BlockSize: b}) { // 8 = 2·2·2
		steps := int64(n / st.BlockSize)
		sends := int64(s*coarserJ*(st.J-1) + s*coarserI*(st.I-1))
		messages += steps * sends
		bytes += steps * sends * int64(n/s*st.BlockSize) * 8
		coarserI, coarserJ = coarserI*st.I, coarserJ*st.J
	}
	p := int64(g.Size())
	cfg := Config{N: n, Grid: g, Knobs: core.Knobs{BlockSize: b}, Levels: levels,
		Machine: machine.Model{Alpha: 1e-5, Beta: 1e-9, Gamma: 1e-10}}
	for r, st := range liveStats(t, cfg, engine.Multilevel) {
		if st.SentMessages != messages/p || st.SentBytes != bytes/p {
			t.Fatalf("live rank %d sent %d messages / %d bytes, closed form %d / %d", r, st.SentMessages, st.SentBytes, messages/p, bytes/p)
		}
	}
	for _, ex := range []engine.Executor{engine.ExecutorGoroutine, engine.ExecutorEvent} {
		cfg.Executor = ex
		_, stats, err := RunStats(cfg, engine.Multilevel)
		if err != nil {
			t.Fatal(err)
		}
		for r, st := range stats {
			if st.SentMessages != messages/p || st.SentBytes != bytes/p {
				t.Fatalf("%s rank %d sent %d messages / %d bytes, closed form %d / %d", ex, r, st.SentMessages, st.SentBytes, messages/p, bytes/p)
			}
		}
	}
}
