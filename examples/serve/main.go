// Example serve demonstrates GEMM-as-a-service end to end, twice over:
//
//  1. the library face — hsumma.NewSession resolves the plan once and
//     keeps a queue and operand scratch, so a stream of products of one
//     shape skips planning (Stats.SetupSeconds shows it: the one-shot
//     Multiply's includes spec resolution, a session's only staging);
//
//  2. the daemon face — the same machinery behind HTTP: an in-process
//     server (identical to cmd/hsumma-serve) receives concurrent
//     mixed-shape POST /multiply requests routed onto shape-keyed
//     sessions, then reports its /metrics.
//
// Run with: go run ./examples/serve
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"

	hsumma "repro"
	"repro/internal/serve"
)

func main() {
	// --- 1. Library sessions -------------------------------------------
	const n, p = 256, 16
	cfg := hsumma.Config{Procs: p, Algorithm: hsumma.AlgHSUMMA}
	sess, err := hsumma.NewSession(hsumma.SquareShape(n), cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	fmt.Printf("library session %s\n", sess.Key())
	for i := 0; i < 3; i++ {
		a := hsumma.RandomMatrix(n, n, uint64(2*i+1))
		b := hsumma.RandomMatrix(n, n, uint64(2*i+2))
		_, st, err := sess.Multiply(a, b)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  multiply %d: wall %.2fms, per-request setup %.3fms, %d messages\n",
			i+1, 1000*st.WallSeconds, 1000*st.SetupSeconds, st.Messages)
	}
	// One-shot comparison: the same product resolving its plan every call.
	a := hsumma.RandomMatrix(n, n, 1)
	b := hsumma.RandomMatrix(n, n, 2)
	_, oneShot, err := hsumma.Multiply(a, b, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  one-shot Multiply for comparison: wall %.2fms, setup %.3fms\n\n",
		1000*oneShot.WallSeconds, 1000*oneShot.SetupSeconds)

	// --- 2. The daemon over HTTP ---------------------------------------
	sc := serve.NewScheduler(serve.SchedulerConfig{CoreBudget: 64})
	defer sc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: serve.NewHandler(sc, serve.HandlerConfig{DefaultProcs: 4})}
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + ln.Addr().String()
	fmt.Printf("daemon listening on %s (same handler as cmd/hsumma-serve)\n", url)

	// Concurrent clients with two different shapes: the scheduler routes
	// each onto the session owning its execution shape.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, k, nn := 64, 64, 64
			if i%2 == 1 {
				m, k, nn = 48, 96, 24
			}
			ra := hsumma.RandomMatrix(m, k, uint64(i+1))
			rb := hsumma.RandomMatrix(k, nn, uint64(i+10))
			body, _ := json.Marshal(map[string]any{
				"m": m, "n": nn, "k": k, "procs": 4,
				"a": ra.Pack(nil), "b": rb.Pack(nil),
			})
			resp, err := http.Post(url+"/multiply", "application/json", bytes.NewReader(body))
			if err != nil {
				log.Fatal(err)
			}
			defer resp.Body.Close()
			var res struct {
				M, N  int
				Stats struct{ WallSeconds float64 }
			}
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  client %d: %dx%d product in %.2fms\n", i, res.M, res.N, 1000*res.Stats.WallSeconds)
		}(i)
	}
	wg.Wait()

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	fmt.Println("\nselected /metrics:")
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "hsumma_serve_") &&
			(strings.Contains(line, "requests_total") || strings.Contains(line, "sessions_live") ||
				strings.Contains(line, "session_hits_total") || strings.Contains(line, "session_misses_total")) {
			fmt.Println("  " + line)
		}
	}
}
