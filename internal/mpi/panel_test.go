package mpi

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
					panel := tc.NewPanel(rows, cols)
					src := matrix.New(rows, cols)
					for s := 0; s < steps; s++ {
						if c.Rank() == root {
							src.Fill(float64(s + 1))
							tc.Pack(panel, src)
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
		outer, inner := tc.NewPanel(rows, cols), tc.NewPanel(rows, cols)

		// Outer → inner by reference, then a segmented broadcast of inner.
		if r == 0 {
			tc.Pack(outer, tile(1))
			tc.Repack(inner, outer, 0, 0)
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
			tc.Pack(outer, tile(2))
			filled("inner after outer repacked", &inner.Tile, 1)
			filled("outer after repack", &outer.Tile, 2)
		}

		// A partial window copies.
		half := tc.NewPanel(rows, 2)
		if r == 0 {
			tc.Repack(half, outer, 0, 3)
			filled("window", &half.Tile, 2)
			if held(half) == held(outer) {
				panic("partial-window Repack shared storage")
			}
		}

		// Rotate a panel round the ring twice, repacking after each send:
		// what a rank receives is what its neighbour held, not what the
		// neighbour wrote next.
		ring := tc.NewPanel(rows, cols)
		tc.Pack(ring, tile(float64(10+r)))
		for step := 1; step <= 2; step++ {
			tc.SendRecv((r+1)%p, 5, ring, (r+p-1)%p, 5, ring)
			filled("rotation", &ring.Tile, float64(10+(r+p-step)%p))
		}
		tc.Send((r+1)%p, 6, ring)
		got := tc.NewPanel(rows, cols)
		tc.Pack(ring, tile(-1)) // sender moves on before the receiver looks
		tc.Recv((r+p-1)%p, 6, got)
		filled("send then repack", &got.Tile, float64(10+(r+p-1+p-2)%p))
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
		tc.Bcast(sched.Binomial, 0, tc.NewPanel(2, 2))
	})
	if err == nil || !strings.Contains(err.Error(), "empty panel") {
		t.Fatalf("expected an empty-panel abort, got %v", err)
	}
}

// TestPersistentPanicThenReuse aborts a program mid-broadcast — ranks die
// holding shared payloads, with more in flight — and then runs clean
// programs on the same resident world: nothing the dead program touched
// may come back from the pool while it could still be referenced, so the
// next programs' panels must carry exactly what their roots packed.
func TestPersistentPanicThenReuse(t *testing.T) {
	const p, rows, cols = 6, 8, 8
	pw, err := Persistent(p)
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()

	program := func(base float64, failAt int) func(c *Comm) {
		return func(c *Comm) {
			tc := AsComm(c)
			panel := tc.NewPanel(rows, cols)
			src := matrix.New(rows, cols)
			for s := 0; s < 6; s++ {
				root := s % p
				if c.Rank() == root {
					src.Fill(base + float64(s))
					tc.Pack(panel, src)
				}
				tc.Bcast(sched.Binomial, root, panel)
				if s == failAt && c.Rank() == p-1 {
					panic("injected failure")
				}
				filled(fmt.Sprintf("rank %d step %d", c.Rank(), s), &panel.Tile, base+float64(s))
			}
		}
	}
	for round := 0; round < 3; round++ {
		if _, err := pw.RunOn(program(100, 2)); err == nil || !strings.Contains(err.Error(), "injected failure") {
			t.Fatalf("round %d: expected the injected failure, got %v", round, err)
		}
		for i := 0; i < 2; i++ {
			if _, err := pw.RunOn(program(float64(1000*(round+1)+10*i), -1)); err != nil {
				t.Fatalf("round %d: clean program %d after the abort: %v", round, i, err)
			}
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
