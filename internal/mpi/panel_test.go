package mpi

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/comm"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// filled panics unless every element of the tile equals want — the check a
// reader makes on storage it may be sharing with the root.
func filled(what string, m *matrix.Dense, want float64) {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if got := m.At(i, j); got != want {
				panic(fmt.Sprintf("%s: element (%d,%d) = %g, want %g", what, i, j, got, want))
			}
		}
	}
}

// TestPanelBcastStalledReceiver holds one receiver on the tile it was
// given while the root races ahead, for every broadcast algorithm: the
// stalled rank must keep seeing its own step, never the root's next one,
// whether the storage is shared (whole-payload schedules) or exclusive
// (segmented ones). Run under -race: a root writing storage a reader still
// holds is a data race, not only a wrong value.
func TestPanelBcastStalledReceiver(t *testing.T) {
	const p, steps, rows, cols = 5, 8, 6, 7 // 42 elements: ragged segments for p=5
	for _, alg := range sched.Algorithms() {
		for _, root := range []int{0, 3} {
			alg, root := alg, root
			t.Run(fmt.Sprintf("%s/root%d", alg, root), func(t *testing.T) {
				// The last rank in root-relative order is a leaf of the
				// binomial tree: nobody waits for it to forward, so
				// everyone else can run on without it.
				staller := (root + p - 1) % p
				// The ring allgather needs every member in every step, so
				// there the root gets only as far as packing the next step.
				ahead := 3
				if alg == sched.VanDeGeijn {
					ahead = 1
				}
				var packed atomic.Int64 // steps the root has packed so far
				err := Run(p, func(c *Comm) {
					tc := AsComm(c)
					panel := tc.NewPanel(rows, cols, comm.LHS)
					src := matrix.New(rows, cols)
					for s := 0; s < steps; s++ {
						if c.Rank() == root {
							src.Fill(float64(s + 1))
							tc.Pack(panel, src, 0, 0)
							packed.Add(1)
						}
						tc.Bcast(alg, root, panel)
						if c.Rank() == staller {
							want := int64(min(s+1+ahead, steps))
							for packed.Load() < want && !c.world.aborted.Load() {
								runtime.Gosched()
							}
						}
						filled(fmt.Sprintf("rank %d step %d", c.Rank(), s), &panel.Tile, float64(s+1))
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestPanelOwnership pins the contract's corner cases on one world: a full
// window Repack shares storage and a later Pack into the source detaches
// instead of overwriting; a segmented broadcast from shared storage leaves
// the other holder's contents alone; point-to-point rotation hands storage
// on without the sender's next Pack reaching the receiver.
func TestPanelOwnership(t *testing.T) {
	const p, rows, cols = 4, 3, 5
	tile := func(v float64) *matrix.Dense {
		m := matrix.New(rows, cols)
		m.Fill(v)
		return m
	}
	err := Run(p, func(c *Comm) {
		tc := AsComm(c)
		r := c.Rank()
		outer, inner := tc.NewPanel(rows, cols, comm.LHS), tc.NewPanel(rows, cols, comm.LHS)

		// Outer → inner by reference, then a segmented broadcast of inner.
		if r == 0 {
			tc.Pack(outer, tile(1), 0, 0)
			tc.Repack(inner, outer, 0)
			if held(inner) != held(outer) {
				panic("full-window Repack copied instead of sharing")
			}
		}
		tc.Bcast(sched.VanDeGeijn, 0, inner)
		filled("after segmented bcast", &inner.Tile, 1)
		if r == 0 {
			filled("outer after inner's segmented bcast", &outer.Tile, 1)
			// Packing the source again must not reach the panel that
			// shared it.
			tc.Pack(outer, tile(2), 0, 0)
			filled("inner after outer repacked", &inner.Tile, 1)
			filled("outer after repack", &outer.Tile, 2)
		}

		// A partial window copies.
		half := tc.NewPanel(rows, 2, comm.LHS)
		if r == 0 {
			tc.Repack(half, outer, 3)
			filled("window", &half.Tile, 2)
			if held(half) == held(outer) {
				panic("partial-window Repack shared storage")
			}
		}

		// Rotate a panel round the ring twice, repacking after each send:
		// what a rank receives is what its neighbour held, not what the
		// neighbour wrote next.
		ring := tc.NewPanel(rows, cols, comm.LHS)
		tc.Pack(ring, tile(float64(10+r)), 0, 0)
		for step := 1; step <= 2; step++ {
			tc.SendRecv((r+1)%p, 5, ring, (r+p-1)%p, 5, ring)
			filled("rotation", &ring.Tile, float64(10+(r+p-step)%p))
		}
		got := tc.NewPanel(rows, cols, comm.LHS)
		tc.SendRecv((r+1)%p, 6, ring, (r+p-1)%p, 6, got)
		tc.Pack(ring, tile(-1), 0, 0) // sender moves on, perhaps before its receiver looks
		filled("send then repack", &got.Tile, float64(10+(r+p-1+p-2)%p))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// packedCopy returns m in role's packed layout: what a panel packed from
// m holds on the live transport.
func packedCopy(role comm.Role, m *matrix.Dense) []float64 {
	dst := make([]float64, m.Rows*m.Cols)
	if role == comm.LHS {
		blas.PackLHS(dst, m)
	} else {
		blas.PackRHS(dst, m)
	}
	return dst
}

// TestPanelRepackCompactTails: a k-window Repack of a panel whose last
// micro-panel or strip is compact — an LHS panel of 13 rows (6+6+1), an
// RHS panel of 11 columns (8+3) — holds exactly what packing that window
// of the source tile would, and so does every receiver of its broadcast.
func TestPanelRepackCompactTails(t *testing.T) {
	const p, k = 3, 20
	for _, role := range []comm.Role{comm.LHS, comm.RHS} {
		src := matrix.Random(13, k, 1)
		if role == comm.RHS {
			src = matrix.Random(k, 11, 2)
		}
		for _, win := range [][2]int{{0, 7}, {5, 7}, {13, 7}, {19, 1}, {0, k}} {
			off, w := win[0], win[1]
			var view *matrix.Dense
			if role == comm.LHS {
				view = src.View(0, off, src.Rows, w)
			} else {
				view = src.View(off, 0, w, src.Cols)
			}
			want := packedCopy(role, view)
			err := Run(p, func(c *Comm) {
				tc := AsComm(c)
				outer := tc.NewPanel(src.Rows, src.Cols, role)
				inner := tc.NewPanel(view.Rows, view.Cols, role)
				if c.Rank() == 0 {
					tc.Pack(outer, src, 0, 0)
					tc.Repack(inner, outer, off)
				}
				tc.Bcast(sched.Binomial, 0, inner)
				if !slices.Equal(inner.Tile.Data, want) {
					panic(fmt.Sprintf("rank %d: role %d window (%d,%d) is not the packed window", c.Rank(), role, off, w))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPanelSegmentedBcastPacked: a Van de Geijn broadcast cuts a packed
// panel into p segments that straddle micro-panels and strips; every
// receiver reassembles the root's packed bytes exactly, and multiplying
// the received panels gives blas.Gemm's product on the row-major tiles,
// bit for bit.
func TestPanelSegmentedBcastPacked(t *testing.T) {
	const p, rows, k, cols = 5, 13, 9, 11
	a, b := matrix.Random(rows, k, 3), matrix.Random(k, cols, 4)
	want := matrix.New(rows, cols)
	blas.Gemm(want, a, b)
	wantA, wantB := packedCopy(comm.LHS, a), packedCopy(comm.RHS, b)
	err := Run(p, func(c *Comm) {
		tc := AsComm(c)
		ap, bp := tc.NewPanel(rows, k, comm.LHS), tc.NewPanel(k, cols, comm.RHS)
		if c.Rank() == 1 {
			tc.Pack(ap, a, 0, 0)
			tc.Pack(bp, b, 0, 0)
		}
		tc.Bcast(sched.VanDeGeijn, 1, ap)
		tc.Bcast(sched.VanDeGeijn, 1, bp)
		if !slices.Equal(ap.Tile.Data, wantA) || !slices.Equal(bp.Tile.Data, wantB) {
			panic(fmt.Sprintf("rank %d: segmented broadcast changed the packed bytes", c.Rank()))
		}
		got := tc.NewTile(rows, cols)
		tc.Gemm(got, ap, bp, 1)
		if !matrix.Equal(got, want) {
			panic(fmt.Sprintf("rank %d: product of received panels differs from blas.Gemm", c.Rank()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEmptyPanelSendAborts: publishing a panel that was never packed or
// received into is a programming error reported through the world abort.
func TestEmptyPanelSendAborts(t *testing.T) {
	err := Run(2, func(c *Comm) {
		tc := AsComm(c)
		tc.Bcast(sched.Binomial, 0, tc.NewPanel(2, 2, comm.LHS))
	})
	if err == nil || !strings.Contains(err.Error(), "empty panel") {
		t.Fatalf("expected an empty-panel abort, got %v", err)
	}
}

// TestPersistentPanicThenReuse aborts a program mid-broadcast — ranks die
// holding shared payloads, with more in flight — and then runs clean
// programs in the same process. The payload pool is process-wide, so
// nothing the dead program touched may come back from it while it could
// still be referenced: the next programs' panels must carry exactly what
// their roots packed.
func TestPersistentPanicThenReuse(t *testing.T) {
	for round := 0; round < 3; round++ {
		if _, err := RunStats(broadcastProgram(100, 2)); err == nil || !strings.Contains(err.Error(), "injected failure") {
			t.Fatalf("round %d: expected the injected failure, got %v", round, err)
		}
		for i := 0; i < 2; i++ {
			if _, err := RunStats(broadcastProgram(float64(1000*(round+1)+10*i), -1)); err != nil {
				t.Fatalf("round %d: clean program %d after the abort: %v", round, i, err)
			}
		}
	}
}

// TestPersistentConcurrentRunOn runs programs from many goroutines at
// once. Each call has a world of its own but draws on the one payload
// pool, so under -race this is where two programs sharing storage would
// show: every panel must carry exactly what its own root packed.
func TestPersistentConcurrentRunOn(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := RunStats(broadcastProgram(float64(100*i), -1)); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// broadcastProgram returns a 6-rank program that broadcasts a packed 8×8
// panel from every rank in turn, step s carrying base+s, and checks each
// receiver's copy. With failAt ≥ 0 the last rank panics right after that
// step's broadcast, while payloads are still shared.
func broadcastProgram(base float64, failAt int) (int, func(c *Comm)) {
	const p, rows, cols = 6, 8, 8
	return p, func(c *Comm) {
		tc := AsComm(c)
		panel := tc.NewPanel(rows, cols, comm.LHS)
		src := matrix.New(rows, cols)
		for s := 0; s < 6; s++ {
			root := s % p
			if c.Rank() == root {
				src.Fill(base + float64(s))
				tc.Pack(panel, src, 0, 0)
			}
			tc.Bcast(sched.Binomial, root, panel)
			if s == failAt && c.Rank() == p-1 {
				panic("injected failure")
			}
			filled(fmt.Sprintf("rank %d step %d", c.Rank(), s), &panel.Tile, base+float64(s))
		}
	}
}

// TestWaitWithinComm checks the accounting invariant WaitSeconds ≤
// CommSeconds on every rank, with a slow sender so that the receivers
// demonstrably wait.
func TestWaitWithinComm(t *testing.T) {
	const p = 4
	stats, err := RunStats(p, func(c *Comm) {
		buf := make([]float64, 64)
		for i := 0; i < 5; i++ {
			if c.Rank() == 0 {
				time.Sleep(time.Millisecond) // the stimulus: a root that is late
			}
			c.Bcast(sched.Binomial, 0, buf, 1)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	var waited float64
	for r, s := range stats {
		if s.WaitSeconds < 0 || s.WaitSeconds > s.CommSeconds {
			t.Errorf("rank %d: WaitSeconds %g outside [0, CommSeconds %g]", r, s.WaitSeconds, s.CommSeconds)
		}
		waited += s.WaitSeconds
	}
	if waited == 0 {
		t.Error("no rank recorded any wait, though receivers blocked on a late root")
	}
	if sum := Summarize(stats); sum.MaxWait > sum.MaxComm {
		t.Errorf("Summary: MaxWait %g > MaxComm %g", sum.MaxWait, sum.MaxComm)
	}
}

var _ comm.Comm = Transport{}
