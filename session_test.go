package hsumma

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/matrix"
	"repro/internal/serve"
)

// TestSessionBitIdenticalToMultiply locks in the serving acceptance
// invariant: a warm session produces bit-identical results and identical
// traffic to the one-shot Multiply for the same configuration — both stage
// by the same rule and execute the same spec on the same runtime — and both
// to the copying Scatter → engine.Run → Gather reference, across divisible,
// padded and rectangular shapes and every algorithm family. Neither path
// writes a caller's operand.
func TestSessionBitIdenticalToMultiply(t *testing.T) {
	cases := []struct {
		name  string
		shape Shape
		cfg   Config
	}{
		{"square divisible", SquareShape(64), Config{Procs: 16}},
		{"square padded", SquareShape(50), Config{Procs: 4}},
		{"rect", Shape{M: 48, N: 16, K: 32}, Config{Procs: 8, Algorithm: AlgSUMMA}},
		{"hsumma G", SquareShape(32), Config{Procs: 16, Algorithm: AlgHSUMMA, Groups: 4, BlockSize: 8}},
		{"padded 30x26x22", Shape{M: 30, N: 26, K: 22}, Config{Procs: 16}},
		{"K-only padded", Shape{M: 32, N: 32, K: 30}, Config{Procs: 16, BlockSize: 4}},
		{"cannon", SquareShape(16), Config{Procs: 4, Algorithm: AlgCannon}},
		{"cannon padded", SquareShape(31), Config{Procs: 9, Algorithm: AlgCannon}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := NewSession(tc.shape, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			for i := 0; i < 2; i++ {
				a := RandomMatrix(tc.shape.M, tc.shape.K, uint64(7*i+1))
				b := RandomMatrix(tc.shape.K, tc.shape.N, uint64(7*i+2))
				aBefore, bBefore := a.Clone(), b.Clone()
				want, wantStats, err := Multiply(a, b, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, gotStats, err := sess.Multiply(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if !matrix.Equal(a, aBefore) || !matrix.Equal(b, bBefore) {
					t.Fatalf("call %d: an operand was written", i)
				}
				ref, refSum := explicitRun(t, a, b, tc.cfg)
				if !matrix.Equal(got, want) || !matrix.Equal(got, ref) {
					t.Fatalf("call %d: session result differs from Multiply by %g, from the copying reference by %g (want bit-identical)",
						i, MaxAbsDiff(got, want), MaxAbsDiff(got, ref))
				}
				if gotStats.Messages != wantStats.Messages || gotStats.Bytes != wantStats.Bytes ||
					gotStats.Messages != refSum.Messages || gotStats.Bytes != refSum.Bytes {
					t.Fatalf("call %d: traffic differs: session %d msg/%d B, one-shot %d msg/%d B, copying reference %d msg/%d B",
						i, gotStats.Messages, gotStats.Bytes, wantStats.Messages, wantStats.Bytes, refSum.Messages, refSum.Bytes)
				}
			}
		})
	}
}

// TestStatsSurfacesAgree pins the one-declaration contract of the run
// statistics: every field of the shared struct is filled on both live
// surfaces — the one-shot Multiply and Session.Multiply — so a field one
// surface fills and the other forgets (or a new field neither fills) fails
// by name.
func TestStatsSurfacesAgree(t *testing.T) {
	cfg := Config{Procs: 16, Algorithm: AlgHSUMMA, Groups: 4}
	a, b := RandomMatrix(64, 64, 1), RandomMatrix(64, 64, 2)
	_, oneShot, err := Multiply(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(SquareShape(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_, session, err := sess.Multiply(a, b)
	if err != nil {
		t.Fatal(err)
	}
	st := reflect.TypeOf(serve.RunStats{})
	for i := 0; i < st.NumField(); i++ {
		for name, v := range map[string]reflect.Value{"Multiply": reflect.ValueOf(oneShot), "Session.Multiply": reflect.ValueOf(session)} {
			if v.Field(i).IsZero() {
				t.Errorf("%s leaves Stats.%s unset", name, st.Field(i).Name)
			}
		}
	}
}

// TestStatsWallAndSetup checks the new Stats decomposition on both paths:
// wall covers the whole call, setup is a non-trivial fraction of it on the
// one-shot path, and the session's per-request setup never exceeds what
// the one-shot path pays for the same work.
func TestStatsWallAndSetup(t *testing.T) {
	n := 64
	cfg := Config{Procs: 16}
	a, b := RandomMatrix(n, n, 1), RandomMatrix(n, n, 2)

	_, oneShot, err := Multiply(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if oneShot.WallSeconds <= 0 || oneShot.SetupSeconds <= 0 {
		t.Fatalf("one-shot stats not populated: %+v", oneShot)
	}
	if oneShot.SetupSeconds >= oneShot.WallSeconds {
		t.Fatalf("setup %gs should be less than wall %gs", oneShot.SetupSeconds, oneShot.WallSeconds)
	}

	sess, err := NewSession(SquareShape(n), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, _, err := sess.Multiply(a, b); err != nil { // warm-up call
		t.Fatal(err)
	}
	_, warm, err := sess.Multiply(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if warm.WallSeconds <= 0 || warm.SetupSeconds <= 0 {
		t.Fatalf("session stats not populated: %+v", warm)
	}
	if warm.SetupSeconds >= warm.WallSeconds {
		t.Fatalf("session setup %gs should be less than wall %gs", warm.SetupSeconds, warm.WallSeconds)
	}
}

// TestConcurrentMultiplyRace exercises many fully concurrent one-shot
// Multiply calls (mixed shapes and algorithms, including AlgAuto through
// the shared plan cache) — the shared-state surface -race must stay quiet
// on.
func TestConcurrentMultiplyRace(t *testing.T) {
	cfgs := []struct {
		shape Shape
		cfg   Config
	}{
		{SquareShape(32), Config{Procs: 4}},
		{SquareShape(32), Config{Procs: 16, Algorithm: AlgSUMMA}},
		{Shape{M: 24, N: 12, K: 36}, Config{Procs: 4, Algorithm: AlgSUMMA}},
		{SquareShape(16), Config{Procs: 4, Algorithm: AlgAuto}},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfgs[i%len(cfgs)]
			a := RandomMatrix(c.shape.M, c.shape.K, uint64(i+1))
			b := RandomMatrix(c.shape.K, c.shape.N, uint64(i+50))
			got, _, err := Multiply(a, b, c.cfg)
			if err != nil {
				errs <- err
				return
			}
			if d := MaxAbsDiff(got, Reference(a, b)); d > 1e-9 {
				errs <- errors.New("concurrent Multiply produced a wrong product")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSessionSharedConcurrentRace drives one shared session from many
// goroutines under -race: the session queue must serialise the work with
// no shared-state races and exact results.
func TestSessionSharedConcurrentRace(t *testing.T) {
	shape := SquareShape(32)
	sess, err := NewSession(shape, Config{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := RandomMatrix(shape.M, shape.K, uint64(i+1))
			b := RandomMatrix(shape.K, shape.N, uint64(i+100))
			got, _, err := sess.Multiply(a, b)
			if err != nil {
				errs <- err
				return
			}
			if d := MaxAbsDiff(got, Reference(a, b)); d > 1e-9 {
				errs <- errors.New("shared session produced a wrong product")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if sess.Calls() != callers {
		t.Fatalf("Calls() = %d, want %d", sess.Calls(), callers)
	}
}

// TestSessionClosedError checks the public sentinel.
func TestSessionClosedError(t *testing.T) {
	shape := SquareShape(16)
	sess, err := NewSession(shape, Config{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	a, b := RandomMatrix(16, 16, 1), RandomMatrix(16, 16, 2)
	if _, _, err := sess.Multiply(a, b); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("want ErrSessionClosed, got %v", err)
	}
}

// BenchmarkSessionThroughput compares requests/sec of a warm session
// against repeated one-shot Multiply at the shape the serve workloads run
// (HSUMMA, 4 ranks, 256³). Both spawn their rank goroutines per product and
// run it through the same Execute, so what the session saves is plan
// resolution, the operand scratch (allocated once; this unpadded shape
// needs none) and a queue that coalesces same-A requests (none arrive
// here: one caller). Run with:
//
//	go test -run '^$' -bench BenchmarkSessionThroughput -benchtime 2000x
func BenchmarkSessionThroughput(b *testing.B) {
	const n, p = 256, 4
	cfg := Config{Procs: p, Algorithm: AlgHSUMMA}
	am := RandomMatrix(n, n, 1)
	bm := RandomMatrix(n, n, 2)

	b.Run("oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Multiply(am, bm, cfg); err != nil {
				b.Fatal(err)
			}
		}
		reportReqPerSec(b)
	})
	b.Run("session", func(b *testing.B) {
		sess, err := NewSession(SquareShape(n), cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		if _, _, err := sess.Multiply(am, bm); err != nil { // warm
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := sess.Multiply(am, bm); err != nil {
				b.Fatal(err)
			}
		}
		reportReqPerSec(b)
	})
}

// reportReqPerSec adds a requests/sec metric to a benchmark.
func reportReqPerSec(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
