package hsumma

// The SUMMA family is one pivot loop over a list of levels. These tests pin
// what the merge must not move — the simulated numbers of the parent
// commit's three separate loops — and what it fixes: one validation of the
// list on every surface that accepts it from outside.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/serve"
)

// TestFamilyPinsParentSimulation holds SUMMA, HSUMMA and the 0- and 1-level
// multilevel runs to the literals commit d44a833 produced with its separate
// SUMMA and HSUMMA loops at the benchmark's BG/P point, on both virtual
// engines.
func TestFamilyPinsParentSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("2048-rank virtual runs skipped in short mode")
	}
	type tuple struct {
		total, comm     float64
		messages, bytes int64
	}
	summa := tuple{124.61870735360426, 14.667544576003984, 50307072, 3418793967616}
	hsumma := tuple{115.39678863359995, 5.445625855999724, 9019392, 3934190043136}
	bgp := PlatformBGPCalibrated()
	base := SimConfig{N: 65536, Procs: 2048, BlockSize: 256, Broadcast: BcastVanDeGeijn, Platform: &bgp}
	for _, c := range []struct {
		name string
		set  func(*SimConfig)
		want tuple
	}{
		{"summa", func(c *SimConfig) { c.Algorithm = AlgSUMMA }, summa},
		{"hsumma G=32", func(c *SimConfig) { c.Algorithm, c.Groups = AlgHSUMMA, 32 }, hsumma},
		{"multilevel []", func(c *SimConfig) { c.Algorithm = AlgMultilevel }, summa},
		{"multilevel 4x8:256", func(c *SimConfig) {
			c.Algorithm, c.Levels = AlgMultilevel, []Level{{I: 4, J: 8, BlockSize: 256}}
		}, hsumma},
	} {
		for _, eng := range []Engine{EngineEvent, EngineGoroutine} {
			cfg := base
			c.set(&cfg)
			cfg.Engine = eng
			r, err := Simulate(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, eng, err)
			}
			if got := (tuple{r.Total, r.Comm, r.Messages, r.Bytes}); got != c.want {
				t.Errorf("%s/%s: got %+v, parent commit gave %+v", c.name, eng, got, c.want)
			}
		}
	}
}

// TestFamilyRejectsInvalidWidths sends level lists no hierarchy can have
// through every surface that takes one from outside: the façade, Simulate
// and the daemon's POST /multiply. Each must answer with a plain error (400
// and a counted failure from the daemon) — at the parent commit these were
// a zero product with a nil error, a divide by zero in every rank, and a
// panic out of the cost model.
func TestFamilyRejectsInvalidWidths(t *testing.T) {
	const n, procs = 32, 16
	cases := []struct {
		name string
		cfg  Config
		wire map[string]any // the same request as a daemon body, when the wire can say it
	}{
		{"negative outer block", Config{Algorithm: AlgHSUMMA, Groups: 4, BlockSize: 2, OuterBlockSize: -2},
			map[string]any{"algorithm": "hsumma", "groups": 4, "block_size": 2, "outer_block_size": -2}},
		{"outer block below inner", Config{Algorithm: AlgHSUMMA, Groups: 4, BlockSize: 4, OuterBlockSize: 2},
			map[string]any{"algorithm": "hsumma", "groups": 4, "block_size": 4, "outer_block_size": 2}},
		{"outer block not a multiple", Config{Algorithm: AlgHSUMMA, Groups: 4, BlockSize: 2, OuterBlockSize: 3},
			map[string]any{"algorithm": "hsumma", "groups": 4, "block_size": 2, "outer_block_size": 3}},
		{"strassen bottom outer block below inner",
			Config{Algorithm: AlgStrassen, StrassenInnerGroups: 4, BlockSize: 4, OuterBlockSize: 2},
			map[string]any{"algorithm": "strassen", "strassen_inner_groups": 4, "block_size": 4, "outer_block_size": 2}},
		{"negative level width", Config{Algorithm: AlgMultilevel, BlockSize: 2, Levels: []Level{{I: 2, J: 2, BlockSize: -4}}}, nil},
		{"zero level width", Config{Algorithm: AlgMultilevel, BlockSize: 2, Levels: []Level{{I: 2, J: 2, BlockSize: 0}}}, nil},
		{"widths increase downwards", Config{Algorithm: AlgMultilevel, BlockSize: 2,
			Levels: []Level{{I: 2, J: 2, BlockSize: 2}, {I: 2, J: 2, BlockSize: 4}}}, nil},
		{"zero groups in a level", Config{Algorithm: AlgMultilevel, BlockSize: 2, Levels: []Level{{I: 0, J: 2, BlockSize: 4}}}, nil},
		{"level products exceed grid", Config{Algorithm: AlgMultilevel, BlockSize: 2, Levels: []Level{{I: 8, J: 2, BlockSize: 4}}}, nil},
	}

	sc := serve.NewScheduler(serve.SchedulerConfig{CoreBudget: procs})
	srv := httptest.NewServer(serve.NewHandler(sc, serve.HandlerConfig{DefaultProcs: procs}))
	defer func() {
		srv.Close()
		sc.Close()
	}()
	a, b := RandomMatrix(n, n, 1), RandomMatrix(n, n, 2)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A panic in a rank goroutine would kill the test binary; one in
			// the caller is caught here so the failure names its case.
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			cfg := c.cfg
			cfg.Procs = procs
			if out, _, err := Multiply(a, b, cfg); err == nil {
				t.Errorf("Multiply accepted it (max |C| = %g)", MaxAbsDiff(out, NewMatrix(n, n)))
			}
			sim := SimConfig{N: n, Procs: procs, Algorithm: cfg.Algorithm, Groups: cfg.Groups, BlockSize: cfg.BlockSize,
				OuterBlockSize: cfg.OuterBlockSize, Levels: cfg.Levels, StrassenInnerGroups: cfg.StrassenInnerGroups,
				Machine: PlatformGrid5000().Model}
			if _, err := Simulate(sim); err == nil {
				t.Error("Simulate accepted it")
			}
			if c.wire == nil {
				return
			}
			body := map[string]any{"m": n, "n": n, "k": n, "a": a.Data, "b": b.Data}
			for k, v := range c.wire {
				body[k] = v
			}
			buf, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			before := sc.Metrics().Errors
			resp, err := http.Post(srv.URL+"/multiply", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST /multiply: status %d, want 400", resp.StatusCode)
			}
			if got := sc.Metrics().Errors - before; got != 1 {
				t.Errorf("hsumma_serve_errors_total moved by %d, want 1", got)
			}
		})
	}
}

// TestFamilyLoopAllocationBudget guards the property the merge was measured
// for at scale: the parent's HSUMMA loop cost 92,652 mallocs per simulated
// op at p=2048 where its multilevel loop — two digit slices per rank, level
// and step — cost 2,202,694. Simulate of HSUMMA at p=256 (n=16384, G=16,
// b=64: 256 steps) took 15,605–15,671 mallocs on the parent's goroutine
// engine and 21,154–22,295 on its event engine; the merged loop must stay
// under the parent's worst plus 1,024 (four per rank) for run-to-run
// noise, and the same hierarchy spelled as a one-level multilevel run must
// cost the same, where the parent's cost 280,000.
func TestFamilyLoopAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, c := range []struct {
		eng    Engine
		parent uint64
	}{{EngineGoroutine, 15671}, {EngineEvent, 22295}} {
		for _, spelling := range []string{"hsumma", "multilevel"} {
			cfg := SimConfig{N: 16384, Procs: 256, Algorithm: AlgHSUMMA, Groups: 16, BlockSize: 64,
				Broadcast: BcastVanDeGeijn, Machine: PlatformBGPCalibrated().Model, Engine: c.eng}
			if spelling == "multilevel" {
				cfg.Algorithm, cfg.Groups, cfg.Levels = AlgMultilevel, 0, []Level{{I: 4, J: 4, BlockSize: 64}}
			}
			if _, err := Simulate(cfg); err != nil { // warm the schedule caches
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := Simulate(cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if got := after.Mallocs - before.Mallocs; got > c.parent+1024 {
				t.Errorf("%s/%s: %d mallocs per Simulate, parent commit's HSUMMA took %d", c.eng, spelling, got, c.parent)
			}
		}
	}
}
