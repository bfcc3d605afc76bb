package mpi

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

func TestRunAllRanksExecute(t *testing.T) {
	var count atomic.Int64
	err := Run(8, func(c *Comm) {
		count.Add(1)
		if c.Size() != 8 {
			t.Errorf("size %d", c.Size())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 8 {
		t.Fatalf("%d ranks ran, want 8", count.Load())
	}
}

func TestRunRejectsBadSize(t *testing.T) {
	if err := Run(0, func(*Comm) {}); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestRanksDistinct(t *testing.T) {
	seen := make([]atomic.Int64, 16)
	err := Run(16, func(c *Comm) {
		seen[c.Rank()].Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range seen {
		if seen[r].Load() != 1 {
			t.Fatalf("rank %d executed %d times", r, seen[r].Load())
		}
	}
}

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.send(1, 7, []float64{1, 2, 3})
		} else {
			buf := make([]float64, 3)
			c.recv(0, 7, buf)
			if buf[0] != 1 || buf[2] != 3 {
				t.Errorf("received %v", buf)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			data := []float64{42}
			c.send(1, 0, data)
			data[0] = -1 // mutate after send; receiver must still see 42
			c.Barrier()
		} else {
			buf := make([]float64, 1)
			c.Barrier()
			c.recv(0, 0, buf)
			if buf[0] != 42 {
				t.Errorf("send did not copy: got %v", buf[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	// Two messages with different tags must match by tag, not order.
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.send(1, 1, []float64{1})
			c.send(1, 2, []float64{2})
		} else {
			b2 := make([]float64, 1)
			c.recv(0, 2, b2) // request the later message first
			b1 := make([]float64, 1)
			c.recv(0, 1, b1)
			if b1[0] != 1 || b2[0] != 2 {
				t.Errorf("tag matching broken: %v %v", b1, b2)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerSenderSameTag(t *testing.T) {
	err := Run(2, func(c *Comm) {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.send(1, 0, []float64{float64(i)})
			}
		} else {
			buf := make([]float64, 1)
			for i := 0; i < n; i++ {
				c.recv(0, 0, buf)
				if buf[0] != float64(i) {
					t.Errorf("message %d arrived as %v", i, buf[0])
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSourceMatching(t *testing.T) {
	// Rank 2 receives from 0 and 1 in a fixed order even if they send
	// concurrently.
	err := Run(3, func(c *Comm) {
		switch c.Rank() {
		case 0, 1:
			c.send(2, 0, []float64{float64(c.Rank() + 10)})
		case 2:
			b := make([]float64, 1)
			c.recv(1, 0, b)
			if b[0] != 11 {
				t.Errorf("from rank 1: %v", b[0])
			}
			c.recv(0, 0, b)
			if b[0] != 10 {
				t.Errorf("from rank 0: %v", b[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvSizeMismatchAborts(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.send(1, 0, []float64{1, 2})
		} else {
			c.recv(0, 0, make([]float64, 3))
		}
	})
	if err == nil || !strings.Contains(err.Error(), "recv buffer") {
		t.Fatalf("size mismatch not reported: %v", err)
	}
}

func TestPanicPropagatesAndUnblocksWorld(t *testing.T) {
	err := Run(4, func(c *Comm) {
		if c.Rank() == 3 {
			panic("rank 3 exploded")
		}
		// Other ranks block forever; the abort must free them.
		c.recv((c.Rank()+1)%3, 9, make([]float64, 1))
	})
	if err == nil || !strings.Contains(err.Error(), "rank 3 exploded") {
		t.Fatalf("want rank-3 panic, got %v", err)
	}
}

func TestSelfSendPanics(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.send(0, 0, []float64{1})
		}
	})
	if err == nil || !strings.Contains(err.Error(), "self-send") {
		t.Fatalf("self-send not rejected: %v", err)
	}
}

func TestSendRecvShiftRing(t *testing.T) {
	// Every rank shifts a value around a ring simultaneously — the
	// Cannon-style exchange that must not deadlock.
	p := 8
	err := Run(p, func(c *Comm) {
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		buf := make([]float64, 1)
		c.send(right, 0, []float64{float64(c.Rank())})
		c.recv(left, 0, buf)
		if buf[0] != float64(left) {
			t.Errorf("rank %d got %v, want %d", c.Rank(), buf[0], left)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitRowsAndCols(t *testing.T) {
	// 3x4 grid: row communicators of size 4, column communicators of 3.
	err := Run(12, func(c *Comm) {
		row, col := c.Rank()/4, c.Rank()%4
		rowComm := c.Split(row, col)
		if rowComm.Size() != 4 || rowComm.Rank() != col {
			t.Errorf("rank %d: rowComm size=%d rank=%d", c.Rank(), rowComm.Size(), rowComm.Rank())
		}
		colComm := c.Split(100+col, row)
		if colComm.Size() != 3 || colComm.Rank() != row {
			t.Errorf("rank %d: colComm size=%d rank=%d", c.Rank(), colComm.Size(), colComm.Rank())
		}
		// Message isolation: a row broadcast must not leak into columns.
		data := []float64{float64(row * 1000)}
		rowComm.Bcast(sched.Binomial, 0, data, 1)
		if data[0] != float64(row*1000) {
			t.Errorf("row bcast corrupted: %v", data[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	err := Run(4, func(c *Comm) {
		color := -1
		if c.Rank() < 2 {
			color = 0
		}
		sub := c.Split(color, 0)
		if c.Rank() < 2 {
			if sub == nil || sub.Size() != 2 {
				t.Errorf("rank %d: bad sub %v", c.Rank(), sub)
			}
		} else if sub != nil {
			t.Errorf("rank %d: undefined color got communicator", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrdering(t *testing.T) {
	// Reverse keys invert the rank order in the new communicator.
	err := Run(4, func(c *Comm) {
		sub := c.Split(0, -c.Rank())
		if sub.Rank() != 3-c.Rank() {
			t.Errorf("rank %d got sub rank %d, want %d", c.Rank(), sub.Rank(), 3-c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSplit(t *testing.T) {
	// Split the world into halves, then each half into pairs.
	err := Run(8, func(c *Comm) {
		half := c.Split(c.Rank()/4, c.Rank())
		pair := half.Split(half.Rank()/2, half.Rank())
		if pair.Size() != 2 {
			t.Errorf("pair size %d", pair.Size())
		}
		// Exchange within the pair.
		other := 1 - pair.Rank()
		buf := make([]float64, 1)
		pair.send(other, 5, []float64{float64(c.Rank())})
		pair.recv(other, 5, buf)
		want := c.Rank() ^ 1
		if buf[0] != float64(want) {
			t.Errorf("rank %d paired with %v, want %d", c.Rank(), buf[0], want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAllAlgorithms(t *testing.T) {
	for _, alg := range sched.Algorithms() {
		for _, p := range []int{1, 2, 3, 5, 8, 16, 17} {
			for _, root := range []int{0, p - 1} {
				alg, p, root := alg, p, root
				t.Run(fmt.Sprintf("%s/p%d/root%d", alg, p, root), func(t *testing.T) {
					err := Run(p, func(c *Comm) {
						data := make([]float64, 37)
						if c.Rank() == root {
							for i := range data {
								data[i] = float64(i * i)
							}
						}
						c.Bcast(alg, root, data, 1)
						for i := range data {
							if data[i] != float64(i*i) {
								t.Errorf("rank %d elem %d = %v", c.Rank(), i, data[i])
								return
							}
						}
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	// The raw form's segment count is fixed at 1.
	err := Run(2, func(c *Comm) { c.Bcast(sched.Binomial, 0, make([]float64, 4), 4) })
	if err == nil || !strings.Contains(err.Error(), "segments 4") {
		t.Fatalf("segments=4 not rejected: %v", err)
	}
}

func TestBcastConsecutiveCallsDontCross(t *testing.T) {
	// Two broadcasts back to back with different payloads: op sequence
	// numbers must keep them separate.
	err := Run(6, func(c *Comm) {
		a := []float64{0}
		b := []float64{0}
		if c.Rank() == 0 {
			a[0], b[0] = 1, 2
		}
		c.Bcast(sched.Binomial, 0, a, 1)
		c.Bcast(sched.VanDeGeijn, 0, b, 1)
		if a[0] != 1 || b[0] != 2 {
			t.Errorf("rank %d: a=%v b=%v", c.Rank(), a[0], b[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	// After a barrier, every pre-barrier store must be visible. Model:
	// rank 0 writes a shared atomic before the barrier; all ranks read
	// it after.
	var flag atomic.Int64
	err := Run(8, func(c *Comm) {
		if c.Rank() == 0 {
			flag.Store(99)
		}
		c.Barrier()
		if flag.Load() != 99 {
			t.Errorf("rank %d saw flag %d after barrier", c.Rank(), flag.Load())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsCountTraffic(t *testing.T) {
	stats, err := RunStats(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.send(1, 0, make([]float64, 100))
		} else {
			c.recv(0, 0, make([]float64, 100))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].SentMessages != 1 || stats[0].SentBytes != 800 {
		t.Fatalf("rank 0 stats %+v", stats[0])
	}
	if stats[1].SentMessages != 0 {
		t.Fatalf("rank 1 sent nothing but stats say %+v", stats[1])
	}
}

func TestBcastTrafficMatchesSchedule(t *testing.T) {
	// Aggregate bytes sent by a binomial broadcast of n elements over p
	// ranks must be (p-1)*8n.
	p, n := 8, 64
	stats, err := RunStats(p, func(c *Comm) {
		c.Bcast(sched.Binomial, 0, make([]float64, n), 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range stats {
		total += s.SentBytes
	}
	want := int64((p - 1) * 8 * n)
	if total != want {
		t.Fatalf("broadcast moved %d bytes, want %d", total, want)
	}
}

func TestManyRanksSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := 256
	err := Run(p, func(c *Comm) {
		data := make([]float64, 16)
		if c.Rank() == 0 {
			for i := range data {
				data[i] = 3.14
			}
		}
		c.Bcast(sched.VanDeGeijn, 0, data, 1)
		if data[7] != 3.14 {
			t.Errorf("rank %d bad data", c.Rank())
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
