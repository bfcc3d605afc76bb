package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/matrix"
	"repro/internal/serve"
)

// serveInst is a serve workload: `callers` closed-loop HTTP connections
// posting /multiply to the daemon's handler over a loopback httptest server.
// One shape only, so after the first request every op lands on a warm
// serve.Session (resident mpi world, ScatterInto, stage→execute pipeline).
type serveInst struct {
	o      opts
	k      knobs
	json   bool
	pairs  []pair
	bodies [][]byte // one encoded request body per pair
	ctype  string
	path   string

	sc      *serve.Scheduler
	handler http.Handler
	srv     *httptest.Server
	client  *http.Client

	per []*serveCaller // per-caller state, so the window needs no locks
}

type serveCaller struct {
	rot     *rotation
	buf     bytes.Buffer
	samples sampleSet
}

// jsonRequest and jsonResponse are the wire forms of POST /multiply with
// Content-Type application/json (see internal/serve/http.go).
type jsonRequest struct {
	M     int       `json:"m"`
	N     int       `json:"n"`
	K     int       `json:"k"`
	Procs int       `json:"procs"`
	Alg   string    `json:"algorithm"`
	A     []float64 `json:"a"`
	B     []float64 `json:"b"`
}

type jsonResponse struct {
	M     int         `json:"m"`
	N     int         `json:"n"`
	C     []float64   `json:"c"`
	Stats serve.Stats `json:"stats"`
}

// setupServe returns the set-up of a serve workload: operands, references
// and encoded bodies, scheduler + handler + server start, the cold first
// request (session creation) and `warm` warm-up requests.
func setupServe(k knobs, asJSON bool, callers, pairs, warm int) func(o opts) (instance, error) {
	return func(o opts) (instance, error) {
		si := &serveInst{o: o, k: k, json: asJSON, pairs: makePairs(k.n, pairs, o.seed)}
		n := k.n
		for _, p := range si.pairs {
			var body []byte
			if asJSON {
				var err error
				body, err = json.Marshal(jsonRequest{M: n, N: n, K: n, Procs: k.procs, Alg: string(k.alg),
					A: p.a.Pack(nil), B: p.b.Pack(nil)})
				if err != nil {
					return nil, err
				}
			} else {
				body = encodeRaw(append(p.a.Pack(nil), p.b.Pack(nil)...))
			}
			si.bodies = append(si.bodies, body)
		}
		si.ctype, si.path = "application/octet-stream",
			fmt.Sprintf("/multiply?m=%d&k=%d&n=%d&procs=%d&algorithm=%s", n, n, n, k.procs, k.alg)
		if asJSON {
			si.ctype, si.path = "application/json", "/multiply"
		}
		for c := 0; c < callers; c++ {
			si.per = append(si.per, &serveCaller{rot: newRotation(o.seed, c, callers, pairs), samples: sampleSet{}})
		}

		si.sc = serve.NewScheduler(serve.SchedulerConfig{})
		si.handler = serve.NewHandler(si.sc, serve.HandlerConfig{DefaultProcs: k.procs})
		si.srv = httptest.NewServer(si.handler)
		si.client = si.srv.Client()
		for i := 0; i < 1+o.pick(warm, 1); i++ {
			pi := i % len(si.pairs)
			_, out, _, err := si.overHTTP(si.per[0], pi)
			if err != nil {
				si.close()
				return nil, err
			}
			if d := matrix.MaxAbsDiff(out, si.pairs[pi].ref); d > 1e-9*float64(n) {
				si.close()
				return nil, fmt.Errorf("warm-up product is off by %g", d)
			}
		}
		si.per[0].samples = sampleSet{} // warm-up is not part of the window's samples
		return si, nil
	}
}

func (si *serveInst) flops() float64 { return si.k.shape().Flops() }

func (si *serveInst) close() {
	si.srv.Close()
	si.client.CloseIdleConnections()
	_ = si.sc.Close() // nothing is in flight; a drain error has no one to act on it
}

func encodeRaw(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

func decodeRaw(body []byte) []float64 {
	out := make([]float64, len(body)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return out
}

// post sends pair pi's request and reads the whole response into c.buf:
// that is the timed op. It returns the caller-observed time and the stats
// header. Decoding the response (which the oracle needs) is the client's
// work and stays outside the timed span.
func (si *serveInst) post(c *serveCaller, pi int) (time.Duration, string, error) {
	req, err := http.NewRequest(http.MethodPost, si.srv.URL+si.path, bytes.NewReader(si.bodies[pi]))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", si.ctype)
	t0 := time.Now()
	resp, err := si.client.Do(req)
	if err != nil {
		return time.Since(t0), "", err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return d, "", fmt.Errorf("status %d: %.200s", resp.StatusCode, c.buf.Bytes())
	}
	c.samples.add("serve.body_mb", float64(len(si.bodies[pi])+c.buf.Len())/1e6)
	return d, resp.Header.Get("X-Hsumma-Stats"), nil
}

// overHTTP is one whole op: post, then decode.
func (si *serveInst) overHTTP(c *serveCaller, pi int) (time.Duration, *matrix.Dense, serve.Stats, error) {
	d, statsHeader, err := si.post(c, pi)
	if err != nil {
		return d, nil, serve.Stats{}, err
	}
	out, st, err := si.decode(c.buf.Bytes(), statsHeader)
	return d, out, st, err
}

// decode turns a response body (and, for raw bodies, the stats header) into
// the product and the scheduler-side statistics.
func (si *serveInst) decode(body []byte, statsHeader string) (*matrix.Dense, serve.Stats, error) {
	n := si.k.n
	if si.json {
		var jr jsonResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			return nil, serve.Stats{}, err
		}
		if jr.M != n || jr.N != n || len(jr.C) != n*n {
			return nil, serve.Stats{}, fmt.Errorf("response is %dx%d with %d elements", jr.M, jr.N, len(jr.C))
		}
		return matrix.FromSlice(n, n, jr.C), jr.Stats, nil
	}
	if len(body) != 8*n*n {
		return nil, serve.Stats{}, fmt.Errorf("raw response has %d bytes, want %d", len(body), 8*n*n)
	}
	var st serve.Stats
	if err := json.Unmarshal([]byte(statsHeader), &st); err != nil {
		return nil, serve.Stats{}, err
	}
	return matrix.FromSlice(n, n, decodeRaw(body)), st, nil
}

func (si *serveInst) op(caller int) (time.Duration, bool) {
	c := si.per[caller]
	pi := c.rot.next()
	d, out, st, err := si.overHTTP(c, pi)
	if err != nil {
		return d, false
	}
	c.samples.add("serve.queue_ms", st.QueueSeconds*1e3)
	c.samples.add("serve.stage_ms", st.SetupSeconds*1e3)
	c.samples.add("serve.run_ms", st.RunSeconds*1e3)
	c.samples.add("hsumma.wall_gap_share", (d.Seconds()-st.WallSeconds)/d.Seconds())
	c.samples.addSummary(st.MaxRankCommSeconds, st.CommSecondsByPhase["bcast"], st.CommSecondsByPhase["p2p"],
		st.GemmSeconds, st.BusyImbalance, st.Messages, st.Bytes)
	return d, si.o.verified(out, si.pairs[pi].ref)
}

// layers reports what the responses' Stats and the scheduler's counters
// said during the timed window (all callers active).
func (si *serveInst) layers(m metrics) {
	all := sampleSet{}
	for _, c := range si.per {
		all.merge(c.samples)
	}
	all.medians(m)
	sm := si.sc.Metrics()
	m["serve.batch_mean"] = sm.BatchSizeMean
	m["serve.session_hit_share"] = float64(sm.SessionHits) / float64(sm.SessionHits+sm.SessionMisses)
	m["serve.rejected"] = float64(sm.Rejected)
}

// traced times the same op at four depths — the TCP client, the handler on a
// ResponseRecorder, Scheduler.Multiply and Session.Multiply — each call
// under its own root span, with every caller active as in the timed window,
// so the layers are read under the load the end-to-end metrics saw. The
// handler takes a concrete *Scheduler, so the depths cannot nest inside one
// request; the self times between them come from subtracting the depths'
// medians. The depths take turns in short rounds, so a drift of the host's
// speed during the pass moves all of them alike and cancels in the
// subtraction.
func (si *serveInst) traced(tr *tracer, m metrics) (attempted, failed int) {
	rounds, perRound := si.o.pick(10, 1), si.o.pick(4, 2)
	if si.json {
		rounds, perRound = si.o.pick(6, 1), si.o.pick(3, 1)
	}
	rp, err := si.k.params()
	sessions := si.sc.Sessions()
	if err != nil || len(sessions) != 1 {
		return 1, 1
	}
	sess := sessions[0]
	// Each depth's call is the timed part. The two that end in an encoded
	// response return it undecoded: decoding for the oracle is the client's
	// work and runs after the span has closed.
	depths := []struct {
		span string
		call func(c *serveCaller, pi int) (out *matrix.Dense, body []byte, statsHeader string, err error)
	}{
		{"serve.http", func(c *serveCaller, pi int) (*matrix.Dense, []byte, string, error) {
			_, statsHeader, err := si.post(c, pi)
			return nil, c.buf.Bytes(), statsHeader, err
		}},
		{"serve.handler", func(c *serveCaller, pi int) (*matrix.Dense, []byte, string, error) {
			req := httptest.NewRequest(http.MethodPost, si.path, bytes.NewReader(si.bodies[pi]))
			req.Header.Set("Content-Type", si.ctype)
			rec := httptest.NewRecorder()
			si.handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return nil, nil, "", fmt.Errorf("status %d", rec.Code)
			}
			return nil, rec.Body.Bytes(), rec.Header().Get("X-Hsumma-Stats"), nil
		}},
		{"serve.scheduler", func(c *serveCaller, pi int) (*matrix.Dense, []byte, string, error) {
			out, _, err := si.sc.Multiply(si.pairs[pi].a, si.pairs[pi].b, rp)
			return out, nil, "", err
		}},
		{"serve.session", func(c *serveCaller, pi int) (*matrix.Dense, []byte, string, error) {
			out, _, err := sess.Multiply(si.pairs[pi].a, si.pairs[pi].b)
			return out, nil, "", err
		}},
	}
	callers := len(si.per)
	wrong := make([]int, callers)
	for round := 0; round < rounds; round++ {
		for di, dp := range depths {
			var wg sync.WaitGroup
			for lane := 0; lane < callers; lane++ {
				wg.Add(1)
				go func(lane int) {
					defer wg.Done()
					c := &serveCaller{samples: sampleSet{}}
					mine := si.per[lane].rot.mine
					for i := 0; i < perRound; i++ {
						pi := mine[(round*perRound+i)%len(mine)]
						op := ((round*len(depths)+di)*perRound+i)*callers + lane
						s := tr.begin(lane, dp.span, -1, op)
						out, body, statsHeader, err := dp.call(c, pi)
						tr.end(s)
						if err == nil && out == nil {
							out, _, err = si.decode(body, statsHeader)
						}
						if err != nil || !si.o.verified(out, si.pairs[pi].ref) {
							wrong[lane]++
						}
					}
				}(lane)
			}
			wg.Wait()
		}
	}
	attempted = rounds * len(depths) * perRound * callers
	for _, w := range wrong {
		failed += w
	}

	dur := durations(tr.spans)
	httpMs, handlerMs := median(dur["serve.http"]), median(dur["serve.handler"])
	schedMs, sessMs := median(dur["serve.scheduler"]), median(dur["serve.session"])
	m["serve.http_ms"], m["serve.handler_ms"] = httpMs, handlerMs
	m["serve.scheduler_ms"], m["serve.session_ms"] = schedMs, sessMs
	m["serve.net_ms"] = httpMs - handlerMs
	m["serve.codec_ms"] = handlerMs - schedMs
	m["serve.sched_ms"] = schedMs - sessMs
	m["serve.codec_share"] = (handlerMs - schedMs) / httpMs
	m["load.traced_op_ms"] = httpMs
	m["trace.overhead_share"] = httpMs/m["op_ms_p50"] - 1
	m["mpi.comm_share"] = m["mpi.comm_max_ms"] / httpMs
	m["blas.gemm_share"] = m["blas.gemm_max_ms"] / httpMs

	layerProbes(m, sess.Spec(), si.o)
	return attempted, failed
}
