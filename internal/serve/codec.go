package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/matrix"
)

// The payload codec of POST /multiply. The operand and result arrays are
// most of every body, so encoding/json never sees them: requests are scanned
// token by token out of a fixed read window as the body arrives, responses
// are appended straight from the product C. Each array number is lexed and
// converted in one pass (parseNumber: the digits gathered into a uint64
// eight at a time, then Eisel-Lemire), bit for bit what strconv.ParseFloat
// returns; strconv itself sees only the rare token Eisel-Lemire cannot
// decide. Each product number is written with the
// shortest digits Schubfach finds (schubfach.go), byte for byte what
// encoding/json writes. encoding/json is left the handful of knob members
// (jsonMultiply) and the stats object.

const (
	windowBytes  = 64 << 10 // read window: the most body held at once, so also the longest number
	maxSideBytes = 64 << 10 // bound on the non-array members kept for encoding/json
)

// scratch is the working memory of one /multiply request: the read window,
// the decoded operands (a raw body is read straight into them) and the
// encoded JSON response. Objects are pooled and grow to the largest request
// seen.
//
// Ownership: the matrices handed to Scheduler.Multiply alias a and b, and
// the session's ranks read them in place for the whole run. That is sound
// because Multiply returns only after the run has ended and the job is
// closed, and sameOperand only ever compares jobs whose callers are still
// blocked inside Multiply — so a scratch goes back to the pool once its
// response is written, and never before Multiply returns. The product is
// not in the scratch: it is pooled apart (see Execute).
type scratch struct {
	win  []byte
	a, b []float64
	out  []byte // non-array request members while decoding, then the response
}

var scratchPool = sync.Pool{New: func() any { return &scratch{win: make([]byte, windowBytes)} }}

// sized returns dst with length n, reallocating only when it is too small.
func sized(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

var (
	errNonFinite = errors.New("serve: product is not finite") // JSON cannot carry it: HTTP 422
	errLongToken = errors.New("number longer than the read window")
)

// scanner reads a body through a fixed window: buf[pos:end] is unread. The
// first error sticks in err and turns every later call into a no-op, so
// callers check it once per loop instead of once per token.
type scanner struct {
	r        io.Reader
	buf      []byte
	pos, end int
	base     int64 // body offset of buf[0]
	rerr     error // why reading stopped; io.EOF once the body is exhausted
	err      error
}

// fill slides the unread bytes to the front of the window and reads more,
// reporting whether any arrived.
func (s *scanner) fill() bool {
	if s.rerr != nil {
		return false
	}
	s.base += int64(s.pos)
	s.end = copy(s.buf, s.buf[s.pos:s.end])
	s.pos = 0
	if s.end == len(s.buf) {
		s.rerr = errLongToken
		return false
	}
	n, err := s.r.Read(s.buf[s.end:])
	if n == 0 && err == nil {
		err = io.ErrNoProgress
	}
	s.end, s.rerr = s.end+n, err
	return n > 0
}

func (s *scanner) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

// short fails the scan because the body stopped where more was needed.
func (s *scanner) short() {
	if s.rerr == io.EOF {
		s.fail("%w", io.ErrUnexpectedEOF)
	}
	s.fail("%w", s.rerr)
}

// skipSpace skips whitespace and reports whether a byte follows it.
func (s *scanner) skipSpace() bool {
	for s.pos < s.end || s.fill() {
		if c := s.buf[s.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return true
		}
		s.pos++
	}
	return false
}

// peek returns the next non-whitespace byte without consuming it, 0 once
// the scan has failed or the body is over (which fails it).
func (s *scanner) peek() byte {
	if s.err == nil && s.skipSpace() {
		return s.buf[s.pos]
	}
	s.short()
	return 0
}

// expect consumes the next non-whitespace byte, which must be want.
func (s *scanner) expect(want byte) {
	if c := s.peek(); c == want {
		s.pos++
	} else {
		s.fail("unexpected %q, want %q", c, want)
	}
}

// float consumes the JSON number that comes next and returns its value,
// parsed in one pass by parseNumber; a number that runs into the end of the
// window is parsed again once more of the body has arrived.
func (s *scanner) float() float64 {
	s.peek()
	for s.err == nil {
		f, n, cut, ok := parseNumber(s.buf[s.pos:s.end])
		if cut && s.fill() {
			continue // it ran into the end of the window: look again with more
		}
		if s.rerr == errLongToken {
			s.fail("%w", errLongToken)
		} else if n == 0 {
			s.fail("invalid number at %q", s.buf[s.pos:min(s.pos+16, s.end)])
		} else if !ok { // the grammar held, so this is a range error
			s.fail("number %s overflows float64", s.buf[s.pos:s.pos+min(n, 32)])
		}
		s.pos += n
		return f
	}
	return 0
}

// parseNumber parses the longest JSON number at the front of b and returns
// its value, its length n (0 if there is none), whether the end of b cut the
// scan short so that more bytes could make it longer, and false when there
// is no number or it overflows float64. The grammar is stricter than
// strconv.ParseFloat's, which also takes "+1", ".5", "1." and "01": here
// "01" parses as "0" and leaves a '1' the caller has no use for, and "1.e5"
// as "1". The value is strconv.ParseFloat's, bit for bit: the digits are
// gathered into a uint64 as they are lexed, eight at a time where eight are
// present, and converted by Eisel-Lemire. strconv sees the token only when
// Eisel-Lemire cannot decide: more than 19 significant digits, an exponent
// beyond the power table, a subnormal or overflowing result, or a product
// too close to halfway between two float64s.
func parseNumber(b []byte) (f float64, n int, cut, ok bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	first := i // the first mantissa digit
	var man uint64
	if i < len(b) && b[i] == '0' {
		i++
	} else if man, i = digits(b, i, 0); i == first {
		return 0, 0, i == len(b), false
	}
	n = i
	nd, exp10 := n-first, 0 // mantissa digits; the value is ±man·10^exp10
	if i < len(b) && b[i] == '.' {
		i++
		from := i
		if man, i = digits(b, i, man); i > from {
			n, nd, exp10 = i, nd+i-from, from-i
		}
	}
	if i == n && i < len(b) && (b[i] == 'e' || b[i] == 'E') { // not after a bare '.'
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		e, from := 0, i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 { // saturate where strconv does, so both see one exponent
				e = e*10 + int(b[i]-'0')
			}
		}
		if i > from {
			if eneg {
				e = -e
			}
			n, exp10 = i, exp10+e
		}
	}
	if nd > 19 { // man wrapped unless leading zeros leave at most 19 digits
		for _, c := range b[first:n] {
			if c == '0' {
				nd--
			} else if c != '.' {
				break
			}
		}
	}
	if nd <= 19 {
		if f, ok := eiselLemire64(man, exp10, neg); ok {
			return f, n, i == len(b), true
		}
	}
	f, err := strconv.ParseFloat(string(b[:n]), 64)
	return f, n, i == len(b), err == nil
}

// digits appends the decimal digits at b[i:] to man (modulo 2^64) and
// returns it with the index past them. Wherever eight bytes remain, they are
// tested and converted as one little-endian word, the SWAR trick of Lemire's
// fast_float; a word that holds k < 8 digits before another byte ends the
// run with man·10^k plus those k digits, converted in the same way.
func digits(b []byte, i int, man uint64) (uint64, int) {
	for ; i+8 <= len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		other := ((w + 0x4646464646464646) | (w - 0x3030303030303030)) & 0x8080808080808080
		w -= 0x3030303030303030
		if other != 0 {
			// Shift the k digits into the top bytes, behind 8−k zeros. The
			// bytes from the first non-digit up, and any borrow out of it,
			// which only moves upward, are shifted out.
			k := bits.TrailingZeros64(other) >> 3
			return man*uint64pow10[k] + eightDigits(w<<(64-8*k)), i + k
		}
		man = man*100000000 + eightDigits(w)
	}
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	return man, i
}

// eightDigits returns the number whose decimal digits are the bytes of w,
// each 0..9, the lowest byte most significant.
func eightDigits(w uint64) uint64 {
	w = w*10 + w>>8 // adjacent digit pairs, in every other byte
	w = ((w&0x000000FF000000FF)*(100+1000000<<32) + (w>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return w & 0xFFFFFFFF
}

// uint64pow10 holds the powers of ten below 2^64.
var uint64pow10 = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// floats parses the JSON number array that comes next into dst[:0], failing
// at element limit+1 and never growing dst past limit. dst is returned even
// on failure so that storage it grew is kept.
func (s *scanner) floats(dst []float64, limit int) []float64 {
	dst = dst[:0]
	if s.expect('['); s.peek() == ']' {
		s.pos++
		return dst
	}
	for s.err == nil {
		if len(dst) == limit {
			s.fail("array has more than %d elements", limit)
			break
		}
		// Most elements are a whole number in the window, followed by a
		// comma: parse it where it starts and take the comma directly.
		v, n, cut, ok := parseNumber(s.buf[s.pos:s.end])
		if n > 0 && ok && !cut {
			s.pos += n
		} else if v = s.float(); s.err != nil {
			break
		}
		if len(dst) == cap(dst) {
			dst = append(make([]float64, 0, min(limit, max(1024, 2*cap(dst)))), dst...)
		}
		dst = append(dst, v)
		if s.pos < s.end && s.buf[s.pos] == ',' {
			s.pos++
			continue
		}
		switch c := s.peek(); c {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return dst
		default:
			s.fail("unexpected %q in array", c)
		}
	}
	return dst
}

// room reports whether one more byte may move from the body to the side
// buffer, failing the scan when either has run out.
func (s *scanner) room(side []byte) bool {
	if len(side) >= maxSideBytes {
		s.fail("members other than a and b exceed %d bytes", maxSideBytes)
	} else if s.err == nil && s.pos == s.end && !s.fill() {
		s.short()
	}
	return s.err == nil
}

// value appends the raw JSON value (or member name) that comes next, up to
// the ',' ':' or closing bracket that ends it. It tracks string state and
// nesting depth only — enough to find that end; encoding/json checks the
// grammar when it decodes the side buffer.
func (s *scanner) value(side []byte) []byte {
	depth, inStr, esc := 0, false, false
	for s.room(side) {
		switch c := s.buf[s.pos]; {
		case inStr: // left by an unescaped quote; a backslash escapes one byte
			inStr, esc = esc || c != '"', !esc && c == '\\'
		case c == '"':
			inStr = true
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}' || c == ',' || c == ':':
			if depth == 0 {
				return side
			}
			if c == ']' || c == '}' {
				depth--
			}
		}
		side = append(side, s.buf[s.pos])
		s.pos++
	}
	return side
}

// decodeSide hands the members captured so far — `{` then `"key":value,`
// repeated — to encoding/json.
func (s *scanner) decodeSide(side []byte, req *jsonMultiply) {
	if len(side) == 1 || s.err != nil {
		return
	}
	side[len(side)-1] = '}'
	if err := json.Unmarshal(side, req); err != nil {
		s.fail("%w", err)
	}
	side[len(side)-1] = ','
}

// decodeJSON streams a JSON multiply body: the a and b arrays go into the
// scratch's operand slices, every other member into the returned knobs, in
// any order. Dimensions that precede an array size it exactly and fail it at
// the first surplus element; otherwise it may grow to maxBytes/8 elements.
// The caller still owes validateDims and the length checks.
func (sc *scratch) decodeJSON(r io.Reader, maxBytes int64) (req jsonMultiply, err error) {
	s := &scanner{r: r, buf: sc.win}
	side := append(sc.out[:0], '{')
	sc.a, sc.b = sc.a[:0], sc.b[:0]
	var seenA, seenB bool
	s.expect('{')
	for first := true; s.err == nil; first = false {
		c := s.peek()
		if c == '}' && first {
			s.pos++
			break
		}
		keyAt := len(side)
		side = bytes.TrimRight(s.value(side), " \t\r\n")
		s.expect(':')
		// The operands are matched by their exact spelling; anything else
		// (including "A" or an escaped "a") is left to encoding/json,
		// whose struct has no array members.
		switch key := string(side[keyAt:]); key {
		case `"a"`, `"b"`:
			side = side[:keyAt]
			dst, seen, rows, cols := &sc.a, &seenA, &req.M, &req.K
			if key == `"b"` {
				dst, seen, rows, cols = &sc.b, &seenB, &req.K, &req.N
			}
			if *seen {
				s.fail("duplicate member %s", key)
			}
			*seen = true
			s.decodeSide(side, &req)
			limit := int(maxBytes / 8)
			if m, n := *rows, *cols; m > 0 && n > 0 && m <= maxDim && n <= maxDim && m*n <= limit {
				limit = m * n
				*dst = sized(*dst, limit)
			}
			*dst = s.floats(*dst, limit)
		default:
			side = append(s.value(append(side, ':')), ',')
		}
		if c = s.peek(); c != '}' && c != ',' {
			s.fail("unexpected %q after a member", c)
			break
		}
		s.pos++
		if c == '}' {
			break
		}
	}
	if s.err == nil && s.skipSpace() {
		s.fail("trailing %q after the closing brace", s.buf[s.pos])
	} else if s.err == nil && s.rerr != io.EOF {
		s.err = s.rerr
	}
	s.decodeSide(side, &req)
	sc.out = side
	if s.err != nil {
		return req, fmt.Errorf("serve: bad JSON body at byte %d: %w", s.base+int64(s.pos), s.err)
	}
	return req, nil
}

// wireBytes views f's storage as its 8·len(f) bytes, so a raw body is read
// into and a raw product written from it without a copy. The wire is
// little-endian: swapWire fixes the words up on a big-endian host.
func wireBytes(f []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 8*len(f))
}

// swapWire converts f between the host's byte order and the wire's, as
// integers so that every bit pattern (a NaN's payload included) survives; it
// is a no-op on a little-endian host.
func swapWire(f []float64) {
	if binary.NativeEndian.Uint16([]byte{0, 1}) == 1 {
		b := wireBytes(f)
		for i := 0; i < len(b); i += 8 {
			binary.LittleEndian.PutUint64(b[i:], binary.BigEndian.Uint64(b[i:]))
		}
	}
}

// appendResult appends the JSON response for the product c: byte for byte
// what encoding/json's Encoder emits for {"m","n","c","stats"}, newline
// included. A non-finite element fails with errNonFinite naming its (i, j).
func appendResult(dst []byte, c *matrix.Dense, statsJSON []byte) ([]byte, error) {
	dst = fmt.Appendf(dst, `{"m":%d,"n":%d,"c":[`, c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for j, v := range c.Data[i*c.Stride : i*c.Stride+c.Cols] {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return dst, fmt.Errorf("%w: c[%d,%d] = %v, which JSON cannot carry (raw bodies pass it through)", errNonFinite, i, j, v)
			}
			if i+j > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONFloat(dst, v)
		}
	}
	dst = append(dst, `],"stats":`...)
	dst = append(dst, statsJSON...)
	return append(dst, '}', '\n'), nil
}
