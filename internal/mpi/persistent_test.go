package mpi

import (
	"repro/internal/sched"

	"strings"
	"sync"
	"testing"
)

// TestPersistentSuccessiveRuns executes several independent collective
// programs on one resident world and checks full isolation between runs:
// fresh statistics, fresh communicator namespaces, working splits.
func TestPersistentSuccessiveRuns(t *testing.T) {
	const p = 8
	pw, err := Persistent(p)
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()

	for run := 0; run < 3; run++ {
		stats, err := pw.RunOn(func(c *Comm) {
			// A ring shift plus a split-and-broadcast: exercises tagged
			// point-to-point, Split and collective state in one program.
			r := c.Rank()
			buf := make([]float64, 4)
			send := []float64{float64(run), float64(r), 2, 3}
			c.send((r+1)%p, 7, send)
			c.recv((r+p-1)%p, 7, buf)
			if int(buf[1]) != (r+p-1)%p {
				panic("wrong neighbour payload")
			}
			sub := c.Split(r%2, r)
			data := []float64{float64(run * 10)}
			sub.Bcast(sched.Binomial, 0, data, 1)
			if data[0] != float64(run*10) {
				panic("bcast corrupted payload")
			}
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		var msgs int64
		for _, s := range stats {
			msgs += s.SentMessages
		}
		if msgs == 0 {
			t.Fatalf("run %d: no traffic recorded", run)
		}
	}
}

// TestPersistentMatchesRunStats locks in that a program produces identical
// traffic statistics on the resident world and on the spawn-per-run path.
func TestPersistentMatchesRunStats(t *testing.T) {
	const p = 6
	prog := func(c *Comm) {
		buf := make([]float64, 8)
		if c.Rank() == 0 {
			for dst := 1; dst < p; dst++ {
				c.send(dst, 1, buf)
			}
		} else {
			c.recv(0, 1, buf)
			c.send(0, 2, buf[:2])
		}
		if c.Rank() == 0 {
			for src := 1; src < p; src++ {
				c.recv(src, 2, buf[:2])
			}
		}
	}
	want, err := RunStats(p, prog)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := Persistent(p)
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()
	got, err := pw.RunOn(prog)
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got[r].SentMessages != want[r].SentMessages || got[r].SentBytes != want[r].SentBytes {
			t.Fatalf("rank %d: persistent stats %+v != spawned %+v", r, got[r], want[r])
		}
	}
}

// TestPersistentSurvivesPanic checks that a program panic is reported as an
// error for that run only: the resident ranks stay usable and the next
// program runs cleanly.
func TestPersistentSurvivesPanic(t *testing.T) {
	const p = 4
	pw, err := Persistent(p)
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()

	_, err = pw.RunOn(func(c *Comm) {
		if c.Rank() == 2 {
			panic("deliberate failure")
		}
		// Other ranks block so the abort must unwind them.
		buf := make([]float64, 1)
		c.recv((c.Rank()+1)%p, 99, buf)
	})
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("want the rank-2 panic reported, got %v", err)
	}

	if _, err := pw.RunOn(func(c *Comm) {
		data := []float64{42}
		c.Bcast(sched.Binomial, 0, data, 1)
	}); err != nil {
		t.Fatalf("world unusable after aborted program: %v", err)
	}
}

// TestPersistentConcurrentRunOn drives RunOn from many goroutines; the
// internal serialisation must keep every program's world consistent.
func TestPersistentConcurrentRunOn(t *testing.T) {
	const p = 4
	pw, err := Persistent(p)
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := pw.RunOn(func(c *Comm) {
				data := []float64{1, 2, 3}
				c.Bcast(sched.Binomial, 0, data, 1)
			})
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPersistentClose checks Close is idempotent and RunOn afterwards is a
// clean error.
func TestPersistentClose(t *testing.T) {
	pw, err := Persistent(2)
	if err != nil {
		t.Fatal(err)
	}
	pw.Close()
	pw.Close()
	if _, err := pw.RunOn(func(c *Comm) {}); err == nil {
		t.Fatal("RunOn after Close should fail")
	}
}
