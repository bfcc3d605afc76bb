package simnet

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sched"
)

var vModel = machine.Model{Alpha: 1e-5, Beta: 1e-9, Gamma: 1e-10}

// A broadcast over the virtual world must advance the members' clocks to
// exactly the schedule's Hockney cost, and count one message per schedule
// transfer on the sending rank.
func TestVCommBcastMatchesScheduleCost(t *testing.T) {
	const p, elems = 8, 1000
	w := NewVWorld(p, VConfig{Model: vModel})
	err := w.Run(func(c *VComm) {
		c.Bcast(sched.Binomial, 0, c.NewPanel(1, elems))
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.NewBroadcast(sched.Binomial, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Cost(elems, vModel)
	if got := w.Sim().MaxClock(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("virtual bcast clock %g, schedule cost %g", got, want)
	}
	var msgs int64
	for _, st := range w.Stats() {
		msgs += st.SentMessages
	}
	if msgs != int64(s.NumTransfers()) {
		t.Fatalf("counted %d messages, schedule has %d transfers", msgs, s.NumTransfers())
	}
	// Binomial moves p-1 full copies of the payload.
	var bytes int64
	for _, st := range w.Stats() {
		bytes += st.SentBytes
	}
	if want := int64(8 * elems * (p - 1)); bytes != want {
		t.Fatalf("counted %d bytes, want %d", bytes, want)
	}
}

// Virtual times must be identical across runs regardless of goroutine
// interleaving: clocks are advanced only by each rank's own program order
// and by collectives computed from blocked members.
func TestVCommDeterministic(t *testing.T) {
	run := func() (float64, []VRankStats) {
		w := NewVWorld(6, VConfig{Model: vModel})
		err := w.Run(func(c *VComm) {
			// A mildly irregular program: split into two groups of 3,
			// broadcast inside each, then a ring shift in the world.
			sub := c.Split(c.Rank()%2, c.Rank()).(*VComm)
			sub.Bcast(sched.VanDeGeijn, 0, sub.NewPanel(1, 301))
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() + c.Size() - 1) % c.Size()
			c.SendRecv(next, 9, c.NewPanel(1, 77), prev, 9, c.NewPanel(1, 77))
			if c.Rank()%2 == 0 {
				c.Gemm(c.NewTile(4, 4), c.NewTile(4, 8), c.NewTile(8, 4), 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Total(), w.Stats()
	}
	t0, s0 := run()
	for i := 0; i < 20; i++ {
		ti, si := run()
		if ti != t0 {
			t.Fatalf("run %d total %g != %g", i, ti, t0)
		}
		for r := range s0 {
			if si[r] != s0[r] {
				t.Fatalf("run %d rank %d stats %+v != %+v", i, r, si[r], s0[r])
			}
		}
	}
}

// A symmetric full-duplex ring shift advances every rank by exactly one
// Hockney hop — the rendezvous semantics Cannon's rotations rely on.
func TestVCommSendRecvRing(t *testing.T) {
	const p, elems = 5, 64
	w := NewVWorld(p, VConfig{Model: vModel})
	err := w.Run(func(c *VComm) {
		next := (c.Rank() + 1) % p
		prev := (c.Rank() + p - 1) % p
		c.SendRecv(next, 1, c.NewPanel(1, elems), prev, 1, c.NewPanel(1, elems))
	})
	if err != nil {
		t.Fatal(err)
	}
	hop := vModel.PointToPoint(elems)
	for r := 0; r < p; r++ {
		if got := w.Sim().Clock(r); math.Abs(got-hop) > 1e-18 {
			t.Fatalf("rank %d clock %g, want one hop %g", r, got, hop)
		}
	}
}

// Split must reproduce MPI_Comm_split ordering and return nil for negative
// colours, like the live transport.
func TestVCommSplit(t *testing.T) {
	const p = 6
	w := NewVWorld(p, VConfig{Model: vModel})
	var undefined atomic.Int64
	err := w.Run(func(c *VComm) {
		// Reverse-key split: comm ranks invert within each colour.
		sub := c.Split(c.Rank()/3, -c.Rank())
		s := sub.(*VComm)
		if s.Size() != 3 {
			t.Errorf("sub size %d", s.Size())
		}
		wantRank := 2 - c.Rank()%3
		if s.Rank() != wantRank {
			t.Errorf("world rank %d got sub rank %d, want %d", c.Rank(), s.Rank(), wantRank)
		}
		if dead := c.Split(-1, 0); dead != nil {
			undefined.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if undefined.Load() != 0 {
		t.Fatal("negative colour did not return nil")
	}
}

// A panicking rank must abort the world and surface as an error, without
// deadlocking peers blocked in receives or collectives.
func TestVCommPanicAborts(t *testing.T) {
	w := NewVWorld(4, VConfig{Model: vModel})
	err := w.Run(func(c *VComm) {
		if c.Rank() == 3 {
			panic("rank 3 exploded")
		}
		// Ranks 0-2 block in a collective that can never complete.
		c.Bcast(sched.Binomial, 0, c.NewPanel(1, 10))
	})
	if err == nil || !strings.Contains(err.Error(), "rank 3 exploded") {
		t.Fatalf("expected rank 3's panic, got %v", err)
	}
}

// The virtual transport's buffers and tiles are storage-free.
func TestVCommElidesStorage(t *testing.T) {
	w := NewVWorld(1, VConfig{Model: vModel})
	err := w.Run(func(c *VComm) {
		if p := c.NewPanel(1<<10, 1<<10); p.Tile.Data != nil || p.Elems() != 1<<20 {
			t.Errorf("virtual panel allocated storage")
		}
		tile := c.NewTile(1<<15, 1<<15)
		if tile.Data != nil || tile.Rows != 1<<15 {
			t.Errorf("virtual tile allocated storage")
		}
		if v := tile.View(16, 16, 8, 8); v.Data != nil || v.Rows != 8 {
			t.Errorf("view of shape-only tile allocated storage")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Mismatched virtual receive sizes must abort like the live runtime.
func TestVCommRecvSizeMismatchAborts(t *testing.T) {
	w := NewVWorld(2, VConfig{Model: vModel})
	err := w.Run(func(c *VComm) {
		recv := c.NewPanel(1, 10)
		if c.Rank() == 1 {
			recv = c.NewPanel(1, 11)
		}
		c.SendRecv(1-c.Rank(), 5, c.NewPanel(1, 10), 1-c.Rank(), 5, recv)
	})
	if err == nil || !strings.Contains(err.Error(), "11 elements but message has 10") {
		t.Fatalf("expected size mismatch abort, got %v", err)
	}
}

// comm.Panel shape contract: packing the wrong shape must panic via the
// shared checker on both transports.
func TestVCommPackShapeChecked(t *testing.T) {
	w := NewVWorld(1, VConfig{Model: vModel})
	err := w.Run(func(c *VComm) {
		c.Pack(c.NewPanel(2, 5), c.NewTile(3, 4))
	})
	if err == nil || !strings.Contains(err.Error(), "pack 3x4 tile into 2x5 panel") {
		t.Fatalf("expected pack shape panic, got %v", err)
	}
}

// A panic inside a collective's critical section (here: an unknown
// broadcast algorithm) must abort cleanly and return an error — not
// self-deadlock on the world mutex.
func TestVCommBadBroadcastAborts(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		w := NewVWorld(4, VConfig{Model: vModel})
		done <- w.Run(func(c *VComm) {
			c.Bcast(sched.Algorithm("bogus"), 0, c.NewPanel(1, 8))
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "bogus") {
			t.Fatalf("expected unknown-broadcast error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("virtual world deadlocked on a bad broadcast algorithm")
	}
}

// Contention must slow point-to-point shifts too: SendRecv charges the
// communicator's concurrent flow count, like a shift round of the retired
// phase executor.
func TestVCommSendRecvContention(t *testing.T) {
	run := func(contention ContentionFunc) float64 {
		w := NewVWorld(4, VConfig{Model: vModel, Contention: contention})
		if err := w.Run(func(c *VComm) {
			next, prev := (c.Rank()+1)%4, (c.Rank()+3)%4
			c.SendRecv(next, 1, c.NewPanel(1, 1000), prev, 1, c.NewPanel(1, 1000))
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxCommTime()
	}
	free := run(nil)
	congested := run(SharedSegment)
	if congested <= free {
		t.Fatalf("shared-segment contention did not slow the shift: %g vs %g", congested, free)
	}
	// 4 concurrent flows divide the bandwidth 4x; latency is unaffected.
	wantDelta := 3 * 1000 * vModel.Beta
	if math.Abs((congested-free)-wantDelta) > 1e-15 {
		t.Fatalf("contention delta %g, want %g", congested-free, wantDelta)
	}
}

// Members of one collective must agree on algorithm, root, segment count
// and payload size; a divergent member — the bug class the live transport
// catches with a receive-size panic — must abort the virtual world too.
func TestVCommBcastMismatchAborts(t *testing.T) {
	w := NewVWorld(4, VConfig{Model: vModel})
	err := w.Run(func(c *VComm) {
		n := 100
		if c.Rank() == 2 {
			n = 99
		}
		c.Bcast(sched.Binomial, 0, c.NewPanel(1, n))
	})
	if err == nil || !strings.Contains(err.Error(), "bcast mismatch") {
		t.Fatalf("expected bcast mismatch abort, got %v", err)
	}
}
