package evsim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/comm"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/simnet"
)

func testCfg() simnet.VConfig {
	return simnet.VConfig{Model: machine.Model{Alpha: 1e-5, Beta: 1e-8, Gamma: 1e-9}}
}

// TestPointToPointTiming pins SendRecv's timing when the partner is late:
// rank 1 computes until t₁ before the two ranks shift with each other, so
// rank 0's receive half waits for it. Both directions start from the
// caller's clock and the call completes at the slower one: both clocks end
// at t₁+T, all of rank 0's time is communication, and the goroutine
// engine agrees bit for bit.
func TestPointToPointTiming(t *testing.T) {
	const n = 100
	prog := func(c comm.Comm) {
		if c.Rank() == 1 {
			c.Gemm(c.NewTile(n, n), c.NewPanel(n, n, comm.LHS), c.NewPanel(n, n, comm.RHS), 1)
		}
		c.SendRecv(1-c.Rank(), 7, c.NewPanel(1, 1000, comm.LHS), 1-c.Rank(), 7, c.NewPanel(1, 1000, comm.LHS))
	}
	w := NewWorld(2, testCfg())
	if err := w.Run(prog); err != nil {
		t.Fatal(err)
	}
	m := testCfg().Model
	t1 := m.Compute(blas.FlopsGemm(n, n, n))
	want := t1 + m.PointToPoint(1000)
	if m.PointToPoint(1000) >= t1 {
		t.Fatalf("rank 1 is not late: T=%v t1=%v", m.PointToPoint(1000), t1)
	}
	for r := 0; r < 2; r++ {
		if got := w.Sim().Clock(r); got != want {
			t.Fatalf("rank %d clock %v, want t1+T = %v", r, got, want)
		}
	}
	if got := w.Sim().CommTime(0); got != want {
		t.Fatalf("rank 0 comm time %v, want t1+T = %v", got, want)
	}
	for r, st := range w.Stats() {
		if st.SentMessages != 1 || st.SentBytes != int64(machine.BytesPerElement*1000) {
			t.Fatalf("rank %d stats %+v, want 1 message of 8000 bytes", r, st)
		}
	}
	vw := simnet.NewVWorld(2, testCfg())
	if err := vw.Run(func(c *simnet.VComm) { prog(c) }); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if ev, gr := w.Sim().Clock(r), vw.Sim().Clock(r); ev != gr {
			t.Fatalf("rank %d: event clock %v, goroutine clock %v", r, ev, gr)
		}
		if ev, gr := w.Sim().CommTime(r), vw.Sim().CommTime(r); ev != gr {
			t.Fatalf("rank %d: event comm time %v, goroutine comm time %v", r, ev, gr)
		}
	}
}

// TestAlgorithmPanicBecomesError: a rank panic aborts the world and
// surfaces as Run's error, with every goroutine released.
func TestAlgorithmPanicBecomesError(t *testing.T) {
	w := NewWorld(4, testCfg())
	err := w.Run(func(c comm.Comm) {
		if c.Rank() == 2 {
			panic("boom")
		}
		// The others park in a collective that can never complete.
		c.Bcast(sched.Binomial, 0, c.NewPanel(1, 10, comm.LHS))
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want the rank panic, got %v", err)
	}
}

// TestBcastMismatchAborts: members disagreeing on a collective's
// signature is an SPMD programming error the replay must reject, like
// the goroutine engine's mismatch panic.
func TestBcastMismatchAborts(t *testing.T) {
	w := NewWorld(2, testCfg())
	err := w.Run(func(c comm.Comm) {
		root := 0
		elems := 10
		if c.Rank() == 1 {
			elems = 20
		}
		c.Bcast(sched.Binomial, root, c.NewPanel(1, elems, comm.LHS))
	})
	if err == nil || !strings.Contains(err.Error(), "bcast mismatch") {
		t.Fatalf("want bcast mismatch, got %v", err)
	}
}

// TestRecvSizeMismatchAborts mirrors the goroutine engine's receive-size
// panic.
func TestRecvSizeMismatchAborts(t *testing.T) {
	w := NewWorld(2, testCfg())
	err := w.Run(func(c comm.Comm) {
		recv := c.NewPanel(1, 10, comm.LHS)
		if c.Rank() == 1 {
			recv = c.NewPanel(1, 11, comm.LHS)
		}
		c.SendRecv(1-c.Rank(), 0, c.NewPanel(1, 10, comm.LHS), 1-c.Rank(), 0, recv)
	})
	if err == nil || !strings.Contains(err.Error(), "recv buffer") {
		t.Fatalf("want recv size mismatch, got %v", err)
	}
}

// TestStalledReplayDetected: a shift whose partner never sends is
// reported as a stall instead of hanging forever.
func TestStalledReplayDetected(t *testing.T) {
	w := NewWorld(2, testCfg())
	err := w.Run(func(c comm.Comm) {
		if c.Rank() == 1 {
			c.SendRecv(0, 9, c.NewPanel(1, 4, comm.LHS), 0, 9, c.NewPanel(1, 4, comm.LHS)) // rank 0 never sends
		}
	})
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("want stall detection, got %v", err)
	}
}

// TestSplitStructure: split ordering and negative colours match
// MPI_Comm_split (and the goroutine engine).
func TestSplitStructure(t *testing.T) {
	w := NewWorld(6, testCfg())
	type view struct{ rank, size int }
	views := make([]view, 6)
	err := w.Run(func(c comm.Comm) {
		me := c.Rank()
		color := me % 2
		if me == 5 {
			color = -1
		}
		sub := c.Split(color, -me) // reversed key order
		if sub == nil {
			views[me] = view{-1, -1}
			return
		}
		views[me] = view{sub.Rank(), sub.Size()}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Colour 0: members 0,2,4 keyed -0,-2,-4 -> order 4,2,0.
	// Colour 1: members 1,3 keyed -1,-3 -> order 3,1 (5 opted out).
	want := []view{{2, 3}, {1, 2}, {1, 3}, {0, 2}, {0, 3}, {-1, -1}}
	for i, v := range views {
		if v != want[i] {
			t.Fatalf("rank %d split view %+v, want %+v", i, v, want[i])
		}
	}
}

// TestSymmetryMemoShares: role-equivalent ranks end with equal clocks —
// disjoint row broadcasts from a uniform start, each fired through the
// same schedule, must leave every row with identical per-role clocks and
// communication times.
func TestSymmetryMemoShares(t *testing.T) {
	const rows, cols = 8, 8
	w := NewWorld(rows*cols, testCfg())
	err := w.Run(func(c comm.Comm) {
		row := c.Rank() / cols
		sub := c.Split(row, c.Rank()%cols)
		sub.Bcast(sched.VanDeGeijn, 0, c.NewPanel(1, 4096, comm.LHS))
		sub.Bcast(sched.Binomial, 2, c.NewPanel(1, 128, comm.LHS))
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows*cols; r++ {
		role := r % cols
		if got, want := w.Sim().Clock(r), w.Sim().Clock(role); got != want {
			t.Fatalf("rank %d clock %v differs from role-equivalent rank %d clock %v", r, got, role, want)
		}
		if got, want := w.Sim().CommTime(r), w.Sim().CommTime(role); got != want {
			t.Fatalf("rank %d comm %v differs from role-equivalent rank %d comm %v", r, got, role, want)
		}
	}
}

// TestSingleRankWorld: a p=1 world degenerates cleanly (collectives are
// no-ops, Gemm advances the clock).
func TestSingleRankWorld(t *testing.T) {
	w := NewWorld(1, testCfg())
	err := w.Run(func(c comm.Comm) {
		c.Bcast(sched.Binomial, 0, c.NewPanel(1, 5, comm.LHS))
		c.Gemm(c.NewTile(4, 4), c.NewPanel(4, 4, comm.LHS), c.NewPanel(4, 4, comm.RHS), 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := testCfg().Model.Compute(2 * 4 * 4 * 4)
	if got := w.Total(); got != want {
		t.Fatalf("total %v, want %v", got, want)
	}
}

// TestClassDivergenceIsAnError: ranks grouped into one class whose
// programs differ — here by one extra Gemm — are reported as a wrong class
// rule, not replayed from the representative's stream.
func TestClassDivergenceIsAnError(t *testing.T) {
	w := NewWorld(2, testCfg())
	w.SetClasses([]int{0, 0})
	err := w.Run(func(c comm.Comm) {
		c.Bcast(sched.Binomial, 0, c.NewPanel(1, 10, comm.LHS))
		c.Gemm(c.NewTile(4, 4), c.NewPanel(4, 4, comm.LHS), c.NewPanel(4, 4, comm.RHS), 1)
		if c.Rank() == 1 {
			c.Gemm(c.NewTile(4, 4), c.NewPanel(4, 4, comm.LHS), c.NewPanel(4, 4, comm.RHS), 1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "diverged from its class representative") {
		t.Fatalf("want a divergence error, got %v", err)
	}
}

// runWithin runs w under a deadline so a replay that hangs fails the test
// instead of the whole binary.
func runWithin(t *testing.T, w *World, fn func(c comm.Comm)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.Run(fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("replay hung")
		return nil
	}
}

// TestClassDriftBeyondRingIsAnError: ranks 0 and 1 share a class, but
// rank 0 is stuck on rank 2, which first needs rank 1 to get more than a
// ring's worth of events further. The class ring cannot hold that
// distance: the replay must stop with an error, not hang. With one class
// per rank the same program completes.
func TestClassDriftBeyondRingIsAnError(t *testing.T) {
	program := func(c comm.Comm) {
		r := c.Rank()
		// P = {0, 2}, Q = {1, 3}; R = {1, 2}, S = {0, 3}. Ranks 0 and 1
		// are rank 0 of both their communicators.
		s1 := c.Split(r%2, r)
		s2 := c.Split(map[int]int{0: 1, 1: 0, 2: 0, 3: 1}[r], r)
		panel := c.NewPanel(1, 8, comm.LHS)
		switch r {
		case 0, 1:
			s1.Bcast(sched.Binomial, 0, panel)
			for i := 0; i < 2*ringSize; i++ {
				c.Gemm(c.NewTile(2, 2), c.NewPanel(2, 2, comm.LHS), c.NewPanel(2, 2, comm.RHS), 1)
			}
			s2.Bcast(sched.Binomial, 0, panel)
		case 2:
			s2.Bcast(sched.Binomial, 0, panel) // meets rank 1 after its Gemms
			s1.Bcast(sched.Binomial, 0, panel) // releases rank 0
		case 3:
			s1.Bcast(sched.Binomial, 0, panel)
			s2.Bcast(sched.Binomial, 0, panel)
		}
	}
	if err := runWithin(t, NewWorld(4, testCfg()), program); err != nil {
		t.Fatalf("one class per rank: %v", err)
	}
	w := NewWorld(4, testCfg())
	w.SetClasses([]int{0, 0, 2, 3})
	if err := runWithin(t, w, program); err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("want a stall error, got %v", err)
	}
}

// TestFollowerLateSplitReplays: rank 1's inner Split completes only after
// rank 3 arrives, long after its representative, rank 0, recorded a
// broadcast on the communicator that Split yields. The replay waits for
// rank 1's own communicator and ends bit-identical to one class per rank.
func TestFollowerLateSplitReplays(t *testing.T) {
	program := func(c comm.Comm) {
		r := c.Rank()
		s1 := c.Split(r%2, r) // {0, 2} and {1, 3}
		if r == 3 {
			time.Sleep(20 * time.Millisecond)
		}
		s2 := s1.Split(0, -r)
		s2.Bcast(sched.VanDeGeijn, 0, c.NewPanel(1, 4096, comm.LHS))
		c.Gemm(c.NewTile(8, 8), c.NewPanel(8, 8, comm.LHS), c.NewPanel(8, 8, comm.RHS), 1)
		s2.Bcast(sched.Binomial, 1, c.NewPanel(1, 512, comm.LHS))
	}
	ref := NewWorld(4, testCfg())
	if err := runWithin(t, ref, program); err != nil {
		t.Fatal(err)
	}
	w := NewWorld(4, testCfg())
	w.SetClasses([]int{0, 0, 2, 2})
	if err := runWithin(t, w, program); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if w.Sim().Clock(r) != ref.Sim().Clock(r) || w.Sim().CommTime(r) != ref.Sim().CommTime(r) || w.Stats()[r] != ref.Stats()[r] {
			t.Fatalf("rank %d: classed clock %v comm %v %+v, per-rank clock %v comm %v %+v", r,
				w.Sim().Clock(r), w.Sim().CommTime(r), w.Stats()[r], ref.Sim().Clock(r), ref.Sim().CommTime(r), ref.Stats()[r])
		}
	}
}
