package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/matrix"
)

// testWindow is the scanner window the codec tests use: small enough that
// every seed body straddles it many times, large enough for a 64-byte
// number.
const testWindow = 70

// fuzzMaxBytes is the body limit of the fuzz targets; the element cap that
// follows from it is fuzzMaxBytes/8.
const fuzzMaxBytes = 1 << 12

// refMultiply is the wire struct of the encoding/json codec this package
// used before the streaming scanner: the differential oracle. The element
// pointers tell a null (which encoding/json read as 0) from a number.
type refMultiply struct {
	jsonMultiply
	A []*float64 `json:"a"`
	B []*float64 `json:"b"`
}

// checkDims is the part of parseJSON both codecs share.
func checkDims(req jsonMultiply, lenA, lenB int, maxBytes int64) error {
	if err := validateDims(req.M, req.N, req.K, maxBytes); err != nil {
		return err
	}
	if lenA != req.M*req.K || lenB != req.K*req.N {
		return fmt.Errorf("operand lengths %d, %d do not match %dx%dx%d", lenA, lenB, req.M, req.N, req.K)
	}
	return nil
}

// lenientOnly reports whether an object body leans on something
// encoding/json tolerated and the scanner documents away: an operand member
// not spelled exactly "a"/"b", any member repeated (up to case folding), or
// more non-array bytes than the side buffer holds.
func lenientOnly(obj []byte) bool {
	if len(obj) > maxSideBytes {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(obj))
	dec.Token() // {
	seen := map[string]bool{}
	for dec.More() {
		start := dec.InputOffset()
		tok, _ := dec.Token()
		key := tok.(string)
		raw := string(bytes.TrimLeft(obj[start:dec.InputOffset()], " \t\r\n,"))
		for _, operand := range []string{"a", "b"} {
			if strings.EqualFold(key, operand) && raw != `"`+operand+`"` {
				return true
			}
		}
		// Upper then lower also folds the two non-ASCII letters
		// encoding/json matches to ASCII ones (ſ → s, K → k).
		folded := strings.ToLower(strings.ToUpper(key))
		if seen[folded] {
			return true
		}
		seen[folded] = true
		var skip json.RawMessage
		dec.Decode(&skip)
	}
	return false
}

// checkParseJSON runs one body through the scanner and holds it to the
// contract: no panic, no operand storage past the element cap, and — unless
// the body leans on a documented leniency — the same verdict as
// encoding/json plus the length checks, with bit-identical operands and
// equal knobs.
func checkParseJSON(t *testing.T, body []byte) {
	t.Helper()
	sc := &scratch{win: make([]byte, testWindow)}
	req, err := sc.decodeJSON(bytes.NewReader(body), fuzzMaxBytes)
	if err == nil {
		err = checkDims(req, len(sc.a), len(sc.b), fuzzMaxBytes)
	}
	if cap(sc.a) > fuzzMaxBytes/8 || cap(sc.b) > fuzzMaxBytes/8 || len(sc.out) > maxSideBytes+2 {
		t.Fatalf("scratch grew to %d + %d elements and %d side bytes; the cap is %d elements", cap(sc.a), cap(sc.b), len(sc.out), fuzzMaxBytes/8)
	}
	if errors.Is(err, errLongToken) {
		return // a limit of the 70-byte test window, 64 KiB when serving
	}

	dec := json.NewDecoder(bytes.NewReader(body))
	var first json.RawMessage
	refErr := dec.Decode(&first)
	if refErr == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		refErr = errors.New("trailing data") // the old decoder stopped at the value's end
	}
	if refErr == nil && first[0] != '{' {
		refErr = errors.New("not an object")
	}
	if refErr != nil {
		if err == nil {
			t.Fatalf("scanner accepted a body encoding/json rejects (%v): %q", refErr, body)
		}
		return
	}
	if lenientOnly(first) {
		return
	}
	var ref refMultiply
	refErr = json.Unmarshal(first, &ref)
	if refErr == nil {
		refErr = checkDims(ref.jsonMultiply, len(ref.A), len(ref.B), fuzzMaxBytes)
	}
	for _, p := range append(ref.A, ref.B...) {
		if refErr == nil && p == nil {
			refErr = errors.New("null element")
		}
	}
	if (err == nil) != (refErr == nil) {
		t.Fatalf("scanner says %v, encoding/json says %v: %q", err, refErr, body)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(req, ref.jsonMultiply) {
		t.Fatalf("knobs differ: scanner %+v, encoding/json %+v: %q", req, ref.jsonMultiply, body)
	}
	got := append(append([]float64{}, sc.a...), sc.b...)
	for i, p := range append(ref.A, ref.B...) {
		if math.Float64bits(got[i]) != math.Float64bits(*p) {
			t.Fatalf("operand element %d: scanner %v, encoding/json %v: %q", i, got[i], *p, body)
		}
	}
}

// jsonSeeds is the seed corpus of FuzzParseJSON (and, through go test, a
// table test): every member order, whitespace everywhere, tokens that
// straddle the 70-byte window, the number grammar's corners, and the
// malformed bodies the handler must turn into 400s.
func jsonSeeds() [][]byte {
	members := []string{`"m":2`, `"n":1`, `"k":3`, `"a":[1,-2.5,3e2,4,5,6]`, `"b":[0.1,0.2,0.3]`}
	var seeds [][]byte
	var permute func(done, rest []string)
	permute = func(done, rest []string) {
		if len(rest) == 0 {
			seeds = append(seeds, []byte("{"+strings.Join(done, ",")+"}"))
		}
		for i := range rest {
			next := append(append([]string{}, rest[:i]...), rest[i+1:]...)
			permute(append(done[:len(done):len(done)], rest[i]), next)
		}
	}
	permute(nil, members)
	long := "0." + strings.Repeat("123456789", 7)[:62] // a 64-byte number
	for _, s := range []string{
		" {\n\t\"m\" : 1 , \"k\" : 2 ,\r\n \"n\" : 1 , \"a\" : [ 1 , 2 ] , \"b\" : [ 3 ,\n4 ] } \n",
		`{"m":1,"n":1,"k":2,"a":[-0,1E+2],"b":[4.9e-324,1e-400]}`,
		`{"m":1,"n":1,"k":2,"a":[` + long + `,-` + long[:60] + `e-5],"b":[2.2250738585072014e-308,1.7976931348623157e308]}`,
		`{"m":1,"n":1,"k":1,"a":[0.30000000000000004],"b":[1e21],"procs":4,"algorithm":"hsumma","grid":[2,2],"local_strassen":true}`,
		`{"m":1,"n":1,"k":1,"a":[1],"b":[1],"note":"quote \" brace } bracket ] comma , \\","nested":{"x":[1,{"y":"]}"}],"z":null}}`,
		`{"m":1,"n":1,"k":1,"a":[1],"b":[1],"grid":[],"extra":[[],{}],"t":true,"f":false}`,
		`{"m":1,"n":1,"k":1,"a":[],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"a":[1,2],"b":[1]}`,
		`{"a":[1,2],"b":[1],"m":1,"n":1,"k":1}`,
		`{"m":1,"n":1,"k":1,"a":[1],"b":[1]}junk`,
		`{"m":1,"n":1,"k":1,"a":[1],"b":[1],}`,
		`{"m":1,"n":1,"k":1,"a":[1,],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"a":[1],"a":[1],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"A":[1],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"\u0061":[1],"b":[1]}`,
		`{"m":1,"M":2,"n":1,"k":1,"a":[1],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"a":[null],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"a":null,"b":[1]}`,
		`{"m":1,"n":1,"k":1,"a":[NaN],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"a":[Infinity],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"a":[0x10],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"a":[1e999],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"a":[+1],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"a":[01],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"a":[1.],"b":[.5]}`,
		`{"m":1,"n":1,"k":1,"a":[1e],"b":[-]}`,
		`{"m":1,"n":1,"k":1,"a":["1"],"b":[1]}`,
		`{"m":"1","n":1,"k":1,"a":[1],"b":[1]}`,
		`{"m":1 2,"n":1,"k":1,"a":[1],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"x":[},"a":[1],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"x":],"a":[1],"b":[1]}`,
		`{"m":,"n":1,"k":1,"a":[1],"b":[1]}`,
		`{"m":600,"n":1,"k":1,"a":[1],"b":[1]}`,
		`{"m":0,"n":4,"k":4,"a":[],"b":[]}`,
		`{`, `{}`, `[]`, `null`, `1`, `"a"`, ``, `{"a":[1`, `{"a":[1]`, `{"m":1,"note":"unterminated`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzParseJSON: the streaming scanner never panics, never grows an operand
// past the element cap, and agrees with encoding/json bit for bit wherever
// the old codec accepted a body (checkParseJSON spells out the exceptions).
func FuzzParseJSON(f *testing.F) {
	for _, s := range jsonSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkParseJSON(t, body) })
}

// TestParseJSONSeedVerdicts pins which seeds are accepted, so a scanner that
// rejected everything could not pass the differential check vacuously.
func TestParseJSONSeedVerdicts(t *testing.T) {
	accepted := 0
	for _, body := range jsonSeeds() {
		sc := &scratch{win: make([]byte, testWindow)}
		req, err := sc.decodeJSON(bytes.NewReader(body), fuzzMaxBytes)
		if err == nil && checkDims(req, len(sc.a), len(sc.b), fuzzMaxBytes) == nil {
			accepted++
		}
	}
	if want := 120 + 6; accepted != want {
		t.Fatalf("%d seed bodies accepted, want %d (120 member orders + the 6 well-formed extras)", accepted, want)
	}
}

// lexNumber is the grammar oracle of parseNumber: the lexer the scanner ran
// before parsing and converting became one pass, with "1.e5" lexing as "1"
// (it once ran on into the exponent). It returns the length of the longest
// JSON number at the front of b (0 if there is none) and whether the end of
// b cut the scan short, so that more bytes could make it longer.
func lexNumber(b []byte) (n int, cut bool) {
	i := 0
	has := func(x, y byte) bool {
		if i == len(b) {
			cut = true
		} else if b[i] == x || b[i] == y {
			i++
			return true
		}
		return false
	}
	digits := func() bool {
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		cut = cut || i == len(b)
		return i > from
	}
	has('-', '-')
	if !has('0', '0') && !digits() {
		return 0, cut
	}
	if n = i; has('.', '.') {
		if !digits() {
			return n, cut
		}
		n = i
	}
	if has('e', 'E') {
		if has('+', '-'); digits() {
			n = i
		}
	}
	return n, cut
}

// checkParseNumber holds parseNumber to its two oracles: lexNumber on the
// token's extent and cut, strconv.ParseFloat on the token's value, bits and
// range verdict.
func checkParseNumber(t *testing.T, b []byte) {
	t.Helper()
	f, n, cut, ok := parseNumber(b)
	if wn, wcut := lexNumber(b); n != wn || cut != wcut {
		t.Fatalf("%q: n=%d cut=%v, lexNumber says n=%d cut=%v", b, n, cut, wn, wcut)
	}
	if n == 0 {
		if ok {
			t.Fatalf("%q: ok without a number", b)
		}
		return
	}
	want, err := strconv.ParseFloat(string(b[:n]), 64)
	if ok != (err == nil) || math.Float64bits(f) != math.Float64bits(want) {
		t.Fatalf("%q: %v (%#x) ok=%v, strconv says %v (%#x) err=%v", b[:n], f, math.Float64bits(f), ok, want, math.Float64bits(want), err)
	}
}

// numberCorners are the tokens where a number parser goes wrong: signed
// zeros, the ends of the exponent range, subnormals, halfway cases, the
// 19-digit edge of the uint64 mantissa, over-long exponents, and grammar
// that must stop short.
var numberCorners = []struct {
	in string
	n  int  // the token's length
	ok bool // a float64 came out
}{
	{"-0", 2, true},
	{"0", 1, true},
	{"-0.0e-0", 7, true},
	{"0e999", 5, true},
	{"-0e-999999", 10, true},
	{"1e-400", 6, true},
	{"4.9e-324", 8, true},
	{"2.4703282292062327e-324", 23, true}, // halfway to the smallest subnormal: rounds to 0
	{"2.4703282292062328e-324", 23, true},
	{"2.2250738585072011e-308", 23, true},
	{"2.2250738585072014e-308", 23, true},
	{"1.7976931348623157e308", 22, true},
	{"1.7976931348623159e308", 22, false}, // rounds up to +Inf
	{"1e999", 5, false},
	{"-1e309", 6, false},
	{"9007199254740992", 16, true},
	{"9007199254740993", 16, true}, // halfway between two float64s: strconv decides
	{"9007199254740995", 16, true},
	{"0.30000000000000004", 19, true},
	{"1234567890123456789", 19, true},
	{"9999999999999999999", 19, true},
	{"12345678901234567890", 20, true},
	{"0.00000000000000000001234567890123456789", 40, true}, // 19 digits after 21 zeros
	{"1234567890123456789012345678901234567890", 40, true},
	{"1234567890123456789.012345678901234567890e-20", 45, true},
	{"1e123456", 8, false},
	{"1e-123456", 9, true},
	{"1E+000000000000000000022", 24, true},
	{"1e-0000000000000000000000000000000001", 37, true},
	{"123e", 3, true},
	{"123e+", 3, true},
	{"1.e5", 1, true},
	{"1.", 1, true},
	{"01", 1, true},
	{"-01.5", 2, true},
	{"-", 0, false},
	{"+1", 0, false},
	{".5", 0, false},
	{"", 0, false},
}

// TestParseNumberCorners pins each corner token's extent and verdict, holds
// it to both oracles, and then sends it through the scanner placed so that
// the 70-byte test window ends at every byte of it: the refill and reparse
// must give what a window holding the whole body gives: the same value bits,
// or the same error at the same byte offset.
func TestParseNumberCorners(t *testing.T) {
	for _, tc := range numberCorners {
		_, n, _, ok := parseNumber([]byte(tc.in))
		if n != tc.n || ok != tc.ok {
			t.Errorf("%q: n=%d ok=%v, want n=%d ok=%v", tc.in, n, ok, tc.n, tc.ok)
		}
		checkParseNumber(t, []byte(tc.in))
		checkParseNumber(t, []byte(tc.in+"]"))

		const head = `{"a":[`
		for pad := testWindow - len(tc.in); pad < testWindow; pad++ {
			body := []byte(head + strings.Repeat(" ", pad-len(head)) + tc.in + `],"b":[1],"m":1,"n":1,"k":1}`)
			decode := func(window int) (float64, string) {
				sc := &scratch{win: make([]byte, window)}
				_, err := sc.decodeJSON(bytes.NewReader(body), fuzzMaxBytes)
				if err != nil {
					// The excerpt after "invalid number at" is what the
					// window held, so only the offset before it must agree.
					msg, _, _ := strings.Cut(err.Error(), "invalid number at")
					return 0, msg
				}
				return sc.a[0], ""
			}
			got, gotErr := decode(testWindow)
			want, wantErr := decode(windowBytes)
			if math.Float64bits(got) != math.Float64bits(want) || gotErr != wantErr {
				t.Errorf("%q cut %d bytes in: %v %q, whole body in the window gives %v %q", tc.in, testWindow-pad, got, gotErr, want, wantErr)
			}
			if (wantErr == "") != (tc.ok && tc.n == len(tc.in)) {
				t.Errorf("%q in an array: error %q", tc.in, wantErr)
			}
		}
	}
}

// FuzzParseNumber: parseNumber agrees with the lexer it replaced on every
// token's extent and cut, and with strconv.ParseFloat bit for bit.
func FuzzParseNumber(f *testing.F) {
	for _, tc := range numberCorners {
		f.Add([]byte(tc.in))
	}
	rng := rand.New(rand.NewSource(1))
	for range 32 {
		v := math.Float64frombits(rng.Uint64())
		f.Add(strconv.AppendFloat(nil, v, 'e', -1, 64))
		f.Add(strconv.AppendFloat(nil, 2*rng.Float64()-1, 'f', -1, 64))
	}
	// Digit runs that end just before, on and just after a word boundary,
	// in the integer part and in the fraction, with a terminator and more
	// body behind them.
	for _, run := range []int{1, 7, 8, 9, 15, 16, 17, 23, 24} {
		ds := strings.Repeat("9876543210", 3)[:run]
		for _, tail := range []string{",12345678", "]", "e-5,1", " ,1"} {
			f.Add([]byte(ds + tail))
			f.Add([]byte("-0." + ds + tail))
			f.Add([]byte("1" + ds + "." + ds + tail))
		}
	}
	// Exact products halfway between two float64s, a mantissa below 2^53
	// times a small power of ten: Eisel-Lemire leaves them to strconv.
	for _, in := range []string{"1801439850948201e1", "900719925474099e2", "-1801439850948201e1"} {
		f.Add([]byte(in))
	}
	f.Fuzz(checkParseNumber)
}

// TestDigitsPartialWord holds digits to a digit-at-a-time reference on every
// run length from 0 to 24, starting at every offset mod 8, ended by each
// byte that can follow a run in a number or by the end of the slice, with
// and without more digits behind that byte.
func TestDigitsPartialWord(t *testing.T) {
	ref := func(b []byte, i int, man uint64) (uint64, int) {
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		return man, i
	}
	rng := rand.New(rand.NewSource(3))
	for run := 0; run <= 24; run++ {
		for off := range 8 {
			for _, end := range []string{",", "]", ".", "e", "E", " ", "-", ""} {
				for _, more := range []string{"", "98765432109876543210"} {
					if end == "" && more != "" {
						continue
					}
					b := []byte(strings.Repeat("x", off))
					for range run {
						b = append(b, byte('0'+rng.Intn(10)))
					}
					b = append(b, end+more...)
					man := rng.Uint64() >> rng.Intn(64)
					got, gotI := digits(b, off, man)
					want, wantI := ref(b, off, man)
					if got != want || gotI != wantI {
						t.Fatalf("digits(%q, %d, %d) = %d, %d; want %d, %d", b, off, man, got, gotI, want, wantI)
					}
				}
			}
		}
	}
}

// TestPowersOfTenRows pins rows of the computed Eisel-Lemire table to the
// literals of Go's strconv table: both ends, 10^0 and the worked example.
func TestPowersOfTenRows(t *testing.T) {
	for _, tc := range []struct {
		exp10  int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{0, 0x0000000000000000, 0x8000000000000000},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := detailedPowersOfTen[tc.exp10-detailedPowersOfTenMinExp10]; got != [2]uint64{tc.lo, tc.hi} {
			t.Errorf("1e%d: {%#x, %#x}, want {%#x, %#x}", tc.exp10, got[0], got[1], tc.lo, tc.hi)
		}
	}
}

// FuzzParseRaw checks the raw body's length and shape arithmetic: parseRaw
// never panics, never sizes operands past the body limit, and accepts
// exactly the bodies of (m·k + k·n)·8 bytes — declared or chunked — with the
// operands' bits passed through.
func FuzzParseRaw(f *testing.F) {
	f.Add("m=1&k=2&n=1", []byte("0123456789abcdef01234567"), false)
	f.Add("m=1&k=2&n=1", []byte("0123456789abcdef01234567"), true)
	f.Add("m=1&k=2&n=1", []byte("0123456789abcdef0123456"), true)
	f.Add("m=1&k=2&n=1", []byte("0123456789abcdef012345678"), true)
	f.Add("m=3&k=3&n=3", bytes.Repeat([]byte{0xff}, 144), false)
	f.Add("m=2305843009213693950&k=1&n=2", []byte{}, false)
	f.Add("m=4294967296&k=4294967296&n=1", []byte{}, true)
	f.Add("m=16777217&k=2&n=2", []byte{}, false)
	f.Add("m=-1&k=1&n=1&grid=2x", []byte{}, false)
	f.Add("m=512&k=1&n=1&threads=-1", make([]byte, 4104), true)
	h := &handler{cfg: HandlerConfig{MaxBodyBytes: fuzzMaxBytes}.withDefaults()}
	f.Fuzz(func(t *testing.T, query string, body []byte, chunked bool) {
		r := httptest.NewRequest(http.MethodPost, "/multiply", bytes.NewReader(body))
		r.URL.RawQuery = query
		if chunked {
			r.ContentLength = -1
			r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body))) // hides Len from the server
		}
		sc := &scratch{win: make([]byte, testWindow)}
		a, b, _, err := h.parseRaw(r, sc)
		if cap(sc.a)+cap(sc.b) > fuzzMaxBytes/8 {
			t.Fatalf("operands sized to %d elements for query %q; the body limit allows %d", cap(sc.a)+cap(sc.b), query, fuzzMaxBytes/8)
		}
		if err != nil {
			return
		}
		if got, want := (a.Rows*a.Cols+b.Rows*b.Cols)*8, len(body); got != want || a.Cols != b.Rows {
			t.Fatalf("accepted %dx%d · %dx%d from a %d-byte body (query %q)", a.Rows, a.Cols, b.Rows, b.Cols, want, query)
		}
		if !bytes.Equal(appendRawMatrix(appendRawMatrix(nil, a), b), body) {
			t.Fatalf("operand bits changed in transit (query %q)", query)
		}
	})
}

// TestEncodeMatchesEncodingJSON holds appendResult to the bytes
// encoding/json's Encoder emits for the same response.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 1e21, 1e21 - 1e5, 1e-6, 1e-7, 9.999999e-7, 1e20, 123456789.125,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1.0 / 3, 1e-9, 1e-10, 1e100, 5e-324, 2.5e-8}
	rng := rand.New(rand.NewSource(7))
	for len(vals) < 4096 {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			vals = append(vals, v, rng.NormFloat64(), float64(rng.Intn(1000)))
		}
	}
	stats := Stats{SpecKey: `hsumma<g=4>&"x"`, DecodeSeconds: 0.017, BatchSize: 1, RunStats: RunStats{
		Messages: 16, WallSeconds: 1.5e-7, CommSecondsByPhase: map[string]float64{"p2p": 1e-9, "bcast": 0.25}}}
	for _, rows := range []int{1, 3, len(vals) / 7} {
		// A view into a wider matrix: the encoder must walk rows by stride.
		wide := matrix.FromSlice(rows, len(vals)/rows, vals[:rows*(len(vals)/rows)])
		c := wide.View(0, 0, rows, wide.Cols-1)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(jsonResult{M: c.Rows, N: c.Cols, C: c.Pack(nil), Stats: stats}); err != nil {
			t.Fatal(err)
		}
		statsJSON, _ := json.Marshal(stats)
		got, err := appendResult(nil, c, statsJSON)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			i := 0
			for i < len(got) && i < want.Len() && got[i] == want.Bytes()[i] {
				i++
			}
			t.Fatalf("%d rows: response differs from encoding/json at byte %d: got …%.40s, want …%.40s", rows, i, got[i:], want.Bytes()[i:])
		}
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		c := matrix.FromSlice(2, 2, []float64{1, 2, 3, bad})
		if _, err := appendResult(nil, c, []byte("{}")); !errors.Is(err, errNonFinite) || !strings.Contains(err.Error(), "c[1,1]") {
			t.Fatalf("encoding %v: err = %v, want errNonFinite naming c[1,1]", bad, err)
		}
	}
}

// refJSONFloat is the encoder's oracle, the formatter the codec used before
// Schubfach: encoding/json's float64 rule on strconv. %f, except %e with the
// exponent's leading zero dropped for exponents below -6 or from 21 up.
func refJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	return b
}

// floatChecker compares appendJSONFloat with refJSONFloat, reusing its
// buffers. The encoder appends behind a prefix, as it does in a response.
type floatChecker struct {
	got, want []byte
}

func (c *floatChecker) check(t *testing.T, f float64) {
	t.Helper()
	c.got = appendJSONFloat(append(c.got[:0], ','), f)
	c.want = refJSONFloat(append(c.want[:0], ','), f)
	if !bytes.Equal(c.got, c.want) {
		t.Fatalf("%v (%#x): %s, strconv says %s", f, math.Float64bits(f), c.got[1:], c.want[1:])
	}
}

// TestAppendJSONFloatMatchesStrconv holds the encoder to the strconv oracle
// byte for byte over every class of finite float64, in both signs.
func TestAppendJSONFloatMatchesStrconv(t *testing.T) {
	c := &floatChecker{}
	both := func(f float64) {
		t.Helper()
		c.check(t, f)
		c.check(t, -f)
	}
	// around checks f and its two neighbours.
	around := func(f float64) {
		t.Helper()
		u := math.Float64bits(f)
		both(math.Float64frombits(u - 1))
		both(f)
		if f != math.MaxFloat64 {
			both(math.Float64frombits(u + 1))
		}
	}
	random := 1 << 18
	if raceEnabled {
		random = 1 << 12
	}
	rng := rand.New(rand.NewSource(11))
	for range random {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			c.check(t, f)
		}
		// A random bit pattern in the %f range, 2^-20 to 2^70.
		c.check(t, math.Float64frombits(rng.Uint64()&^(0xFFF<<52)|uint64(1023-20+rng.Intn(90))<<52))
		both(math.Float64frombits(rng.Uint64() & (1<<52 - 1))) // subnormal
	}
	for u := uint64(1); u < 1e5; u++ {
		both(math.Float64frombits(u))
	}
	both(0)
	for e := -1074; e <= 1023; e++ {
		around(math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		p, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		around(p)
	}
	for i := -1000; i <= 1000; i++ {
		around(float64(int64(1)<<53 + int64(i)))
	}
	// Integers below 2^53: every small one, then random ones of any length.
	for i := 1; i <= 1<<16; i++ {
		both(float64(i))
	}
	for range random {
		both(float64(rng.Int63n(1 << 53)))
	}
	for _, f := range []float64{1e-6, 1e21, math.MaxFloat64} {
		around(f)
	}
}

// FuzzAppendJSONFloat: the encoder writes what the strconv oracle writes
// for every finite bit pattern.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{0, 1, 0.1, 1e-6, 1e-7, 1e21, 5e-324, math.MaxFloat64, 1 << 53, 123456.789} {
		f.Add(math.Float64bits(v))
	}
	c := &floatChecker{}
	f.Fuzz(func(t *testing.T, u uint64) {
		if v := math.Float64frombits(u); !math.IsNaN(v) && !math.IsInf(v, 0) {
			c.check(t, v)
		}
	})
}

// floorLog10 returns ⌊log10(num/den)⌋ for positive num and den.
func floorLog10(num, den *big.Int) int {
	k := len(num.String()) - len(den.String()) // exact or one too high
	if p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(absInt(k))), nil); k >= 0 && p.Mul(p, den).Cmp(num) > 0 ||
		k < 0 && p.Mul(p, num).Cmp(den) < 0 {
		k--
	}
	return k
}

func absInt(x int) int { return max(x, -x) }

// TestSchubfachMultipliersFromPowerTable checks the encoder's exponent
// arithmetic against math/big for every float64 exponent, and the
// multiplier derived from each power-table row the encoder can request
// against ⌊10^e·2^(125−⌊e·log2(10)⌋)⌋ + 1.
func TestSchubfachMultipliersFromPowerTable(t *testing.T) {
	one, ten := big.NewInt(1), big.NewInt(10)
	pow2 := func(e int) (num, den *big.Int) { // 2^e as a fraction
		if e >= 0 {
			return new(big.Int).Lsh(one, uint(e)), one
		}
		return one, new(big.Int).Lsh(one, uint(-e))
	}
	requested := map[int]bool{}
	for q := -1074; q <= 971; q++ { // the exponents of c·2^q, c < 2^53
		num, den := pow2(q)
		if k := floorLog10(num, den); flog10pow2(q) != k {
			t.Fatalf("flog10pow2(%d) = %d, want %d", q, flog10pow2(q), k)
		}
		num, den = pow2(q - 2)
		if k := floorLog10(new(big.Int).Mul(num, big.NewInt(3)), den); flog10threeQuartersPow2(q) != k {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d, want %d", q, flog10threeQuartersPow2(q), k)
		}
		requested[-flog10pow2(q)] = true
		requested[-flog10threeQuartersPow2(q)] = true
	}
	for e := range requested {
		p := new(big.Int).Exp(ten, big.NewInt(int64(absInt(e))), nil)
		lg := p.BitLen() - 1 // ⌊e·log2(10)⌋, 10^|e| being no power of two for e ≠ 0
		if e < 0 {
			lg = -p.BitLen()
		}
		if flog2pow10(e) != lg {
			t.Fatalf("flog2pow10(%d) = %d, want %d", e, flog2pow10(e), lg)
		}
		// g = ⌊num/den⌋ + 1 with num/den = 10^e·2^(125−lg)
		num, den := pow2(125 - lg)
		if e >= 0 {
			num = new(big.Int).Mul(num, p)
		} else {
			den = new(big.Int).Mul(den, p)
		}
		g := new(big.Int).Add(new(big.Int).Quo(num, den), one)
		g1, g0 := schubfachMultiplier(e)
		want := [2]uint64{new(big.Int).Rsh(g, 63).Uint64(), g.Uint64() &^ (1 << 63)}
		if g.BitLen() != 126 || [2]uint64{g1, g0} != want {
			t.Fatalf("10^%d: g = %#x·2^63 + %#x from the table row, math/big says %#x·2^63 + %#x (%d bits)", e, g1, g0, want[0], want[1], g.BitLen())
		}
	}
}

// rawBody packs float64s little-endian, the raw wire form.
func rawBody(vals ...float64) []byte {
	var out []byte
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// rawFloats unpacks a raw wire body (whole float64s only).
func rawFloats(body []byte) []float64 {
	out := make([]float64, len(body)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return out
}

func postBody(t *testing.T, url, ctype string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, got, resp.Header
}

// TestHTTPNonFinite pins the rule for IEEE specials: JSON cannot spell
// them, so a non-finite product is a 422 naming its first element (never an
// empty 200) and a non-finite or out-of-range JSON operand a 400; raw bodies
// pass them through in both directions.
func TestHTTPNonFinite(t *testing.T) {
	srv, sc := newTestServer(t)
	const rawURL = "/multiply?m=2&k=2&n=2&procs=4"

	// 1. Finite operands, overflowing product, JSON: 422 + error counter.
	code, msg, _ := postBody(t, srv.URL+"/multiply", "application/json",
		[]byte(`{"m":2,"n":2,"k":2,"procs":4,"a":[1,1,1e200,1],"b":[1,1e200,1,1]}`))
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(msg), "c[1,1]") {
		t.Fatalf("overflowing JSON product: status %d %q, want 422 naming c[1,1]", code, msg)
	}
	if m := sc.Metrics(); m.Errors != 1 {
		t.Fatalf("hsumma_serve_errors_total = %d after a 422, want 1", m.Errors)
	}

	// 2. JSON operands that are not finite JSON numbers: 400.
	for _, elem := range []string{"NaN", "Infinity", "-Infinity", "0x1p3", "1e999", "-1e999"} {
		body := `{"m":2,"n":2,"k":2,"procs":4,"a":[1,2,3,` + elem + `],"b":[1,2,3,4]}`
		if code, msg, _ := postBody(t, srv.URL+"/multiply", "application/json", []byte(body)); code != http.StatusBadRequest {
			t.Fatalf("JSON operand %s: status %d %q, want 400", elem, code, msg)
		}
	}

	// 3. Raw operands carry specials in: Inf·1 + 1·1 = Inf, NaN spreads.
	code, got, _ := postBody(t, srv.URL+rawURL, "application/octet-stream",
		rawBody(math.Inf(1), 1, math.NaN(), 1 /* B: */, 1, 1, 1, 1))
	if c := rawFloats(got); code != http.StatusOK || len(c) != 4 || !math.IsInf(c[0], 1) || !math.IsNaN(c[2]) {
		t.Fatalf("raw specials in: status %d, product %v", code, c)
	}

	// 4. Raw products carry specials out: the overflow of case 1 is a 200.
	code, got, _ = postBody(t, srv.URL+rawURL, "application/octet-stream",
		rawBody(1, 1, 1e200, 1 /* B: */, 1, 1e200, 1, 1))
	if c := rawFloats(got); code != http.StatusOK || len(c) != 4 || !math.IsInf(c[3], 1) || c[0] != 2 {
		t.Fatalf("raw overflow out: status %d, product %v", code, c)
	}
}

// countingBody fails the test if the handler reads a body it should have
// rejected on its declared length alone.
type countingBody struct {
	io.Reader
	reads int
}

func (c *countingBody) Read(p []byte) (int, error) {
	c.reads++
	return c.Reader.Read(p)
}

// TestHTTPStrictBodies covers what the old codec let through: trailing data
// after the JSON object, repeated or case-folded operand members, and raw
// bodies whose length is wrong — decided before any read when declared.
func TestHTTPStrictBodies(t *testing.T) {
	srv, _ := newTestServer(t)
	const ok = `{"m":1,"n":1,"k":2,"procs":4,"a":[1,2],"b":[3,4]}`
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"baseline", ok, 200},
		{"trailing whitespace", ok + " \r\n\t", 200},
		{"trailing garbage", ok + "junk", 400},
		{"trailing value", ok + " {}", 400},
		{"duplicate a", `{"m":1,"n":1,"k":2,"procs":4,"a":[1,2],"a":[1,2],"b":[3,4]}`, 400},
		{"duplicate b", `{"m":1,"n":1,"k":2,"procs":4,"a":[1,2],"b":[3,4],"b":[3,4]}`, 400},
		{"upper-case A", `{"m":1,"n":1,"k":2,"procs":4,"A":[1,2],"b":[3,4]}`, 400},
		{"escaped a", `{"m":1,"n":1,"k":2,"procs":4,"\u0061":[1,2],"b":[3,4]}`, 400},
		{"surplus element with known dims", `{"m":1,"n":1,"k":2,"procs":4,"a":[1,2,3],"b":[3,4]}`, 400},
		{"null element", `{"m":1,"n":1,"k":2,"procs":4,"a":[1,null],"b":[3,4]}`, 400},
	} {
		if code, msg, _ := postBody(t, srv.URL+"/multiply", "application/json", []byte(tc.body)); code != tc.want {
			t.Fatalf("%s: status %d %q, want %d", tc.name, code, msg, tc.want)
		}
	}

	h := NewHandler(NewScheduler(SchedulerConfig{CoreBudget: 16}), HandlerConfig{DefaultProcs: 4})
	post := func(body []byte, declared int64) (int, int) {
		cb := &countingBody{Reader: bytes.NewReader(body)}
		r := httptest.NewRequest(http.MethodPost, "/multiply?m=1&k=2&n=1", cb)
		r.Header.Set("Content-Type", "application/octet-stream")
		r.ContentLength = declared
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec.Code, cb.reads
	}
	good := rawBody(1, 2, 3, 4)
	if code, _ := post(good, 32); code != 200 {
		t.Fatalf("raw baseline: status %d", code)
	}
	if code, _ := post(good, -1); code != 200 {
		t.Fatalf("raw chunked baseline: status %d", code)
	}
	for _, declared := range []int64{31, 33, 0, 1 << 30} {
		if code, reads := post(good, declared); code != 400 || reads != 0 {
			t.Fatalf("raw body declaring %d bytes: status %d after %d reads, want 400 before any read", declared, code, reads)
		}
	}
	if code, _ := post(good[:31], -1); code != 400 {
		t.Fatalf("short chunked raw body: status %d, want 400", code)
	}
	if code, reads := post(append(good[:32:32], make([]byte, 1<<20)...), -1); code != 400 || reads > 4 {
		t.Fatalf("long chunked raw body: status %d after %d reads, want 400 at the first surplus byte", code, reads)
	}
}

// BenchmarkCodec times the two halves of the JSON codec on the serve_json
// benchmark's 256³ request, also per number: 2·256² decoded, 256² encoded.
func BenchmarkCodec(b *testing.B) {
	const n = 256
	perValue := func(b *testing.B, values int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*values), "ns/value")
	}
	body, err := json.Marshal(struct {
		M int       `json:"m"`
		N int       `json:"n"`
		K int       `json:"k"`
		A []float64 `json:"a"`
		B []float64 `json:"b"`
	}{n, n, n, matrix.Random(n, n, 1).Pack(nil), matrix.Random(n, n, 2).Pack(nil)})
	if err != nil {
		b.Fatal(err)
	}
	sc := &scratch{win: make([]byte, windowBytes)}
	// Decode once up front: encode multiplies these operands, and either
	// sub-benchmark may run alone (-bench Codec/encode).
	if _, err := sc.decodeJSON(bytes.NewReader(body), 256<<20); err != nil {
		b.Fatal(err)
	}
	c := reference(matrix.FromSlice(n, n, sc.a), matrix.FromSlice(n, n, sc.b))
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := sc.decodeJSON(bytes.NewReader(body), 256<<20); err != nil {
				b.Fatal(err)
			}
		}
		perValue(b, 2*n*n)
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if sc.out, err = appendResult(sc.out[:0], c, []byte("{}")); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(sc.out)))
		perValue(b, n*n)
	})
}
