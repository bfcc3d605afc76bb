package evsim

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/sched"
)

// TestSplitColoursOffClassPattern: the members of a stream class split the
// world with colours that cut across the class pattern — classes are
// r mod 4, colours r mod 3, one rank (a class of its own) opts out — so
// each member lands in a differently shaped place. Every rank still gets the communicator
// comm.SplitGroups gives it (rank and size, or nil). A program whose
// recorded calls still agree across each class replays bit for bit like
// one class per rank; one whose local update's shape follows the child
// rank is reported as a divergence, never replayed from the wrong stream.
func TestSplitColoursOffClassPattern(t *testing.T) {
	const p = 12
	colors, keys := make([]int, p), make([]int, p)
	for r := range colors {
		colors[r], keys[r] = r%3, -r
	}
	colors[p-1] = -1
	type view struct{ rank, size int }
	want := make([]view, p)
	for r := range want {
		want[r] = view{-1, -1}
	}
	for _, members := range comm.SplitGroups(colors, keys) {
		for i, m := range members {
			want[m] = view{i, len(members)}
		}
	}
	program := func(views []view, byRank bool) func(c comm.Comm) {
		return func(c comm.Comm) {
			r := c.Rank()
			sub := c.Split(colors[r], keys[r])
			if sub == nil {
				views[r] = view{-1, -1}
				return
			}
			views[r] = view{sub.Rank(), sub.Size()}
			sub.Bcast(sched.VanDeGeijn, 0, c.NewPanel(1, 64, comm.LHS))
			n := 4
			if byRank {
				n += sub.Rank()
			}
			c.Gemm(c.NewTile(4, n), c.NewPanel(4, 8, comm.LHS), c.NewPanel(8, n, comm.RHS), 1)
		}
	}
	class := make([]int, p)
	for r := range class {
		class[r] = r % 4
	}
	class[p-1] = p - 1 // the rank that opts out records nothing after the Split
	for _, byRank := range []bool{false, true} {
		refViews, views := make([]view, p), make([]view, p)
		ref := NewWorld(p, testCfg())
		if err := runWithin(t, ref, program(refViews, byRank)); err != nil {
			t.Fatalf("byRank=%v, one class per rank: %v", byRank, err)
		}
		w := NewWorld(p, testCfg())
		w.SetClasses(class)
		err := runWithin(t, w, program(views, byRank))
		for r := range want {
			if refViews[r] != want[r] || views[r] != want[r] {
				t.Fatalf("byRank=%v rank %d: split views %+v (one class per rank) and %+v (classed), want %+v",
					byRank, r, refViews[r], views[r], want[r])
			}
		}
		if byRank {
			if err == nil || !strings.Contains(err.Error(), "diverged from its class representative") {
				t.Fatalf("rank-dependent shapes: want a divergence error, got %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("classed: %v", err)
		}
		for r := 0; r < p; r++ {
			if w.Sim().Clock(r) != ref.Sim().Clock(r) || w.Sim().CommTime(r) != ref.Sim().CommTime(r) || w.Stats()[r] != ref.Stats()[r] {
				t.Fatalf("rank %d: classed clock %v comm %v %+v, per-rank clock %v comm %v %+v", r,
					w.Sim().Clock(r), w.Sim().CommTime(r), w.Stats()[r], ref.Sim().Clock(r), ref.Sim().CommTime(r), ref.Stats()[r])
			}
		}
	}
}
