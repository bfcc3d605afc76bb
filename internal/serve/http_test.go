package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/matrix"
)

func newTestServer(t *testing.T) (*httptest.Server, *Scheduler) {
	t.Helper()
	sc := NewScheduler(SchedulerConfig{CoreBudget: 16})
	srv := httptest.NewServer(NewHandler(sc, HandlerConfig{DefaultProcs: 4}))
	t.Cleanup(func() {
		srv.Close()
		sc.Close()
	})
	return srv, sc
}

// TestHTTPMultiplyJSON round-trips a JSON multiply and checks the product
// against the oracle.
func TestHTTPMultiplyJSON(t *testing.T) {
	srv, _ := newTestServer(t)
	m, k, n := 16, 24, 8
	a := matrix.Random(m, k, 1)
	b := matrix.Random(k, n, 2)
	body, _ := json.Marshal(map[string]any{
		"m": m, "n": n, "k": k, "procs": 4, "algorithm": "hsumma",
		"a": a.Pack(nil), "b": b.Pack(nil),
	})
	resp, err := http.Post(srv.URL+"/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var res jsonResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.M != m || res.N != n || len(res.C) != m*n {
		t.Fatalf("result shape %dx%d (%d elements), want %dx%d", res.M, res.N, len(res.C), m, n)
	}
	got := matrix.FromSlice(m, n, res.C)
	if d := matrix.MaxAbsDiff(got, reference(a, b)); d > oracleTol {
		t.Fatalf("HTTP product differs from oracle by %g", d)
	}
	if res.Stats.Messages == 0 || res.Stats.WallSeconds <= 0 {
		t.Fatalf("implausible stats %+v", res.Stats)
	}
}

// TestHTTPMultiplyStrassen pins Strassen on the wire: there is none in
// the runtime, so a JSON or raw request for algorithm "strassen" is a 4xx
// naming the algorithms there are, and the members of the deleted local
// kernel (local_strassen, strassen_cutoff) are ignored like any unknown
// member, strassen_levels included: a request carrying them — as JSON
// members or as raw query parameters — returns a product bit-identical to
// the same request without them.
func TestHTTPMultiplyStrassen(t *testing.T) {
	srv, _ := newTestServer(t)
	n := 32
	a := matrix.Random(n, n, 5)
	b := matrix.Random(n, n, 6)
	retired := map[string]any{"local_strassen": true, "strassen_cutoff": 4, "strassen_levels": 2}
	post := func(algorithm string, extra map[string]any) *http.Response {
		t.Helper()
		fields := map[string]any{
			"m": n, "n": n, "k": n, "procs": 4, "algorithm": algorithm, "block_size": 16,
			"a": a.Pack(nil), "b": b.Pack(nil),
		}
		for k, v := range extra {
			fields[k] = v
		}
		body, _ := json.Marshal(fields)
		resp, err := http.Post(srv.URL+"/multiply", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	var raw bytes.Buffer
	for _, v := range append(a.Pack(nil), b.Pack(nil)...) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		raw.Write(buf[:])
	}
	postRaw := func(query string) *http.Response {
		t.Helper()
		url := fmt.Sprintf("%s/multiply?m=%d&k=%d&n=%d&procs=4&%s", srv.URL, n, n, n, query)
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(raw.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for name, resp := range map[string]*http.Response{"json": post("strassen", retired), "raw": postRaw("algorithm=strassen")} {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("%s strassen request: status %d, want 4xx: %s", name, resp.StatusCode, msg)
		}
		if !strings.Contains(string(msg), "summa, hsumma, multilevel, cannon, fox, auto") {
			t.Fatalf("%s strassen request: error %q does not list the remaining algorithms", name, msg)
		}
	}

	read := func(resp *http.Response) []byte {
		t.Helper()
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return body
	}
	decode := func(body []byte) jsonResult {
		t.Helper()
		var res jsonResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, old := decode(read(post("summa", nil))), decode(read(post("summa", retired)))
	if d := matrix.MaxAbsDiff(matrix.FromSlice(n, n, plain.C), reference(a, b)); d > oracleTol {
		t.Fatalf("summa HTTP product differs from oracle by %g", d)
	}
	for i := range plain.C {
		if math.Float64bits(old.C[i]) != math.Float64bits(plain.C[i]) {
			t.Fatalf("json: retired members changed c[%d]: %v vs %v", i, old.C[i], plain.C[i])
		}
	}
	if old.Stats.SpecKey != plain.Stats.SpecKey || strings.Contains(old.Stats.SpecKey, "|ls=") {
		t.Fatalf("json: retired members changed the spec key: %q vs %q", old.Stats.SpecKey, plain.Stats.SpecKey)
	}
	plainRaw := read(postRaw("algorithm=summa&block_size=16"))
	oldRaw := read(postRaw("algorithm=summa&block_size=16&local_strassen=true&strassen_cutoff=4"))
	if !bytes.Equal(oldRaw, plainRaw) {
		t.Fatal("raw: retired query parameters changed the product")
	}
}

// TestHTTPMultiplyRaw round-trips the little-endian binary body format.
func TestHTTPMultiplyRaw(t *testing.T) {
	srv, _ := newTestServer(t)
	m, k, n := 8, 16, 8
	a := matrix.Random(m, k, 3)
	b := matrix.Random(k, n, 4)
	var body bytes.Buffer
	for _, v := range append(a.Pack(nil), b.Pack(nil)...) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		body.Write(buf[:])
	}
	url := srv.URL + "/multiply?m=8&k=16&n=8&procs=4&algorithm=summa"
	resp, err := http.Post(url, "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != m*n*8 {
		t.Fatalf("raw response %d bytes, want %d", len(raw), m*n*8)
	}
	got := matrix.New(m, n)
	for i := range got.Data {
		got.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	if d := matrix.MaxAbsDiff(got, reference(a, b)); d > oracleTol {
		t.Fatalf("raw HTTP product differs from oracle by %g", d)
	}
	if h := resp.Header.Get("X-Hsumma-Stats"); !strings.Contains(h, "Messages") {
		t.Fatalf("missing stats header, got %q", h)
	}
}

// TestHTTPAutoKeepsBroadcast checks algorithm=auto honours a pinned
// broadcast: the planner picks the rest, and the session that serves the
// request runs the pinned Van de Geijn broadcast (its spec key says so),
// where the unpinned plan for this shape would broadcast binomially.
func TestHTTPAutoKeepsBroadcast(t *testing.T) {
	srv, _ := newTestServer(t)
	const n = 32
	a, b := matrix.Random(n, n, 5), matrix.Random(n, n, 6)
	var body bytes.Buffer
	for _, v := range append(a.Pack(nil), b.Pack(nil)...) {
		body.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	url := fmt.Sprintf("%s/multiply?m=%d&k=%d&n=%d&procs=8&algorithm=auto&broadcast=vandegeijn", srv.URL, n, n, n)
	resp, err := http.Post(url, "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var st Stats
	if err := json.Unmarshal([]byte(resp.Header.Get("X-Hsumma-Stats")), &st); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.SpecKey, "bc=vandegeijn") {
		t.Fatalf("auto request pinned to vandegeijn ran spec %q", st.SpecKey)
	}
	got := matrix.New(n, n)
	for i := range got.Data {
		got.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	if d := matrix.MaxAbsDiff(got, reference(a, b)); d > oracleTol {
		t.Fatalf("product differs from oracle by %g", d)
	}
}

// TestHTTPBadRequests checks validation surfaces as 400s.
func TestHTTPBadRequests(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"not json", "{"},
		{"zero dims", `{"m":0,"n":4,"k":4,"a":[],"b":[]}`},
		{"wrong a len", `{"m":2,"n":2,"k":2,"a":[1,2,3],"b":[1,2,3,4]}`},
		{"bad algorithm", `{"m":2,"n":2,"k":2,"algorithm":"magic","a":[1,2,3,4],"b":[1,2,3,4]}`},
		{"huge dims", `{"m":16777217,"n":2,"k":2,"a":[],"b":[1,2,3,4]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/multiply", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	// Raw mode: overflow-crafting query parameters must be a clean 400,
	// never a handler panic (the regression was make([]float64, 2^61)).
	for _, q := range []string{
		"m=2305843009213693950&k=1&n=2",
		"m=4294967296&k=4294967296&n=1",
		"m=16777217&k=2&n=2",
	} {
		resp, err := http.Post(srv.URL+"/multiply?"+q, "application/octet-stream", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("raw %q: status %d, want 400", q, resp.StatusCode)
		}
	}

	// Retired broadcast schedules are rejected on both wire forms, naming
	// the two that remain.
	for _, name := range []string{"flat", "binary", "chain", "pipeline"} {
		body := `{"m":2,"n":2,"k":2,"procs":1,"broadcast":"` + name + `","a":[1,2,3,4],"b":[1,2,3,4]}`
		for _, req := range []struct{ url, ct, body string }{
			{srv.URL + "/multiply", "application/json", body},
			{srv.URL + "/multiply?m=1&k=1&n=1&procs=1&broadcast=" + name, "application/octet-stream", "\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x00\x00\x00\x00\x00\xf0\x3f"},
		} {
			resp, err := http.Post(req.url, req.ct, strings.NewReader(req.body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "binomial, vandegeijn") {
				t.Fatalf("%s broadcast=%s: status %d %q, want a 400 naming binomial, vandegeijn", req.ct, name, resp.StatusCode, msg)
			}
		}
	}
}

// TestHTTPPlan checks the planner endpoint returns a ranked plan.
func TestHTTPPlan(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/plan?n=256&p=16&platform=grid5000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var pl struct {
		Best struct {
			Algorithm string `json:"algorithm"`
		} `json:"best"`
		P int `json:"p"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pl); err != nil {
		t.Fatal(err)
	}
	if pl.Best.Algorithm == "" || pl.P != 16 {
		t.Fatalf("implausible plan %+v", pl)
	}
}

// TestHTTPPlanEveryPreset checks /plan accepts every preset spelling
// machine.ByName does — the names hsumma-run plan -platform takes included
// (bgp-cal used to be a 400 here).
func TestHTTPPlanEveryPreset(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, name := range []string{
		"grid5000", "graphene", "grid5000-cal", "grid5000cal",
		"bgp", "bluegene", "bluegenep", "bgp-cal", "bgpcal", "exascale",
	} {
		resp, err := http.Get(srv.URL + "/plan?n=64&p=4&platform=" + name)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("platform=%s: status %d: %s", name, resp.StatusCode, msg)
		}
	}
}

// TestHTTPMetrics drives a request through and scrapes /metrics.
func TestHTTPMetrics(t *testing.T) {
	srv, _ := newTestServer(t)
	a := matrix.Random(16, 16, 1)
	body, _ := json.Marshal(map[string]any{
		"m": 16, "n": 16, "k": 16, "procs": 4,
		"a": a.Pack(nil), "b": a.Pack(nil),
	})
	if resp, err := http.Post(srv.URL+"/multiply", "application/json", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("multiply status %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"hsumma_serve_requests_total 1",
		"hsumma_serve_completed_total 1",
		"hsumma_serve_session_misses_total 1",
		"hsumma_serve_sessions_live 1",
		"hsumma_serve_latency_seconds{quantile=\"0.5\"}",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestHTTPHealthz checks liveness.
func TestHTTPHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}
