package mpi

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"

	"repro/internal/sched"
	"repro/internal/trace"
)

// PersistentWorld keeps p rank goroutines resident so successive collective
// programs run without respawning — the substrate of the serving layer
// (internal/serve), where one session executes a stream of multiplications
// on the same world. Each RunOn executes over fresh per-run coordination
// state (mailboxes, split records, statistics), so programs are fully
// isolated from each other: a program that panics aborts its own run and is
// reported as an error, and the world remains usable for the next RunOn.
//
// RunOn calls are serialised internally; callers may invoke it from
// multiple goroutines, but programs execute one at a time (the SPMD ranks
// of two programs sharing goroutines would otherwise interleave).
type PersistentWorld struct {
	size int
	work []chan *program // one channel per resident rank goroutine
	// scheds outlives the programs: successive runs of one session
	// broadcast over the same communicator shapes.
	scheds *sched.Cache

	runMu  sync.Mutex // serialises RunOn
	stateM sync.Mutex // guards closed
	closed bool
}

// Persistent starts p resident rank goroutines and returns the world that
// drives them. Callers must Close it to release the goroutines.
func Persistent(p int) (*PersistentWorld, error) {
	return PersistentLabeled(p, nil)
}

// PersistentLabeled is Persistent with pprof labels applied to every
// resident rank goroutine, so CPU profiles attribute rank work to the
// session that owns it (the serving layer labels by spec key). Labels are
// alternating key/value pairs; nil means unlabeled.
func PersistentLabeled(p int, labels []string) (*PersistentWorld, error) {
	if p <= 0 {
		return nil, fmt.Errorf("mpi: invalid world size %d", p)
	}
	pw := &PersistentWorld{size: p, work: make([]chan *program, p), scheds: sched.NewCache()}
	for r := 0; r < p; r++ {
		ch := make(chan *program)
		pw.work[r] = ch
		go func(r int, ch chan *program) {
			loop := func(context.Context) {
				for prog := range ch {
					prog.execRank(r)
					prog.done.Done()
				}
			}
			if len(labels) > 0 {
				pprof.Do(context.Background(), pprof.Labels(labels...), loop)
			} else {
				loop(context.Background())
			}
		}(r, ch)
	}
	return pw, nil
}

// Size returns the number of resident ranks.
func (pw *PersistentWorld) Size() int { return pw.size }

// RunOn executes fn SPMD-style on the resident ranks — the persistent
// counterpart of RunStats — and returns the per-rank traffic statistics.
// The program runs over a fresh world state, so successive programs (and
// their communicator splits) are independent.
func (pw *PersistentWorld) RunOn(fn func(c *Comm)) ([]RankStats, error) {
	return pw.RunOnTraced(fn, nil)
}

// RunOnTraced is RunOn with an optional span recorder for this one
// program — the hook behind the daemon's capture-next-request endpoint.
// rec may be nil (tracing disabled).
func (pw *PersistentWorld) RunOnTraced(fn func(c *Comm), rec *trace.Recorder) ([]RankStats, error) {
	pw.runMu.Lock()
	defer pw.runMu.Unlock()
	pw.stateM.Lock()
	closed := pw.closed
	pw.stateM.Unlock()
	if closed {
		return nil, fmt.Errorf("mpi: RunOn on a closed PersistentWorld")
	}
	prog := newProgram(pw.size, fn, pw.scheds)
	prog.attachTrace(rec)
	prog.done.Add(pw.size)
	for r := 0; r < pw.size; r++ {
		pw.work[r] <- prog
	}
	prog.done.Wait()
	return prog.finish()
}

// Close releases the resident rank goroutines. It is idempotent; RunOn
// after Close returns an error.
func (pw *PersistentWorld) Close() {
	pw.stateM.Lock()
	if pw.closed {
		pw.stateM.Unlock()
		return
	}
	pw.closed = true
	pw.stateM.Unlock()
	// Acquire the run lock so no program is mid-flight when the channels
	// close.
	pw.runMu.Lock()
	defer pw.runMu.Unlock()
	for _, ch := range pw.work {
		close(ch)
	}
}
