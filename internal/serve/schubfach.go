package serve

// The response encoder's number formatter: the shortest decimal that reads
// back as the same float64, found by Giulietti's Schubfach ("The Schubfach
// way to render doubles", 2020; the algorithm of Java's DoubleToDecimal) and
// laid out the way encoding/json lays out a float64. Schubfach needs three
// 128×64-bit multiplies and no digit-trimming loop; its multipliers come
// from the decoder's power table. strconv's formatter gives the same bytes
// and is kept as the tests' oracle only.
//
// Two departures from Giulietti's reference make the digits strconv's:
// the one-digit-shorter candidates are tried from s ≥ 10 (not s ≥ 100), and
// small subnormals are not scaled by ten first. The reference does both to
// print at least two digits, as Java does (4.9e-324 where Go prints 5e-324).

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// flog10pow2 is ⌊e·log10(2)⌋, flog10threeQuartersPow2 ⌊log10(¾·2^e)⌋ and
// flog2pow10 ⌊e·log2(10)⌋, exact for every exponent a float64 needs.
func flog10pow2(e int) int { return int(int64(e) * 661971961083 >> 41) }

func flog10threeQuartersPow2(e int) int {
	return int((int64(e)*661971961083 - 274743187321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913124641741 >> 38) }

// schubfachMultiplier returns Schubfach's g for 10^e, ⌊10^e·2^(125−⌊e·
// log2(10)⌋)⌋ + 1, a 126-bit number, as g1·2^63 + g0 with g0 < 2^63. The
// table row for 10^e is the same power with two more bits, truncated
// likewise.
func schubfachMultiplier(e int) (g1, g0 uint64) {
	row := &detailedPowersOfTen[e-detailedPowersOfTenMinExp10]
	lo, carry := bits.Add64(row[0]>>2|row[1]<<62, 1, 0)
	return (row[1]>>2+carry)<<1 | lo>>63, lo &^ (1 << 63)
}

// rop returns ⌊g·cp/2^127⌋ with its lowest bit set when the fraction is not
// zero — round to odd — from the product's upper bits only, as in figure 8
// of Giulietti's paper. The paper shows that this is the round-to-odd value
// of the exact scaled bound that g over-approximates; counting the dropped
// low bits would make every exact bound look inexact.
func rop(g1, g0, cp uint64) uint64 {
	const mask63 = 1<<63 - 1
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return (y1 + z>>63) | ((z&mask63)+mask63)>>63
}

// schubfach returns the shortest decimal d·10^e10 that rounds to the
// positive finite float64 with bits u, the one closest to it when several
// are that short, and the even one of two equally close. d has at most 17
// digits and may end in zeros.
func schubfach(u uint64) (d uint64, e10 int) {
	// The value is c·2^q; Rv, the interval that rounds to it, is
	// [cbl, cbr]·2^(q−2), closed when c is even.
	t := u & (1<<52 - 1)
	bq := int(u >> 52)
	c, q := t, -1074 // subnormal
	if bq != 0 {
		c, q = 1<<52|t, bq-1075
	}
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	cbl, k := cb-2, flog10pow2(q)
	if t == 0 && bq > 1 { // the gap below a power of two is half the gap above
		cbl, k = cb-1, flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g1, g0 := schubfachMultiplier(-k)
	// v and the bounds of Rv, scaled by 4·10^-k and rounded to odd.
	vb := rop(g1, g0, cb<<h)
	vbl := rop(g1, g0, cbl<<h)
	vbr := rop(g1, g0, cbr<<h)

	// s·10^k and t·10^k bracket v and Rv holds one or both: take the one in
	// Rv, or the nearer, or the even one on a tie. Rv holds at most one
	// multiple of 10^(k+1); when it holds one of the two around v, that one
	// is shorter and wins. Which case holds depends on the digits, so each
	// choice is a conditional move, not a branch.
	s := vb >> 2
	t = s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	d = t
	if cmp := int64(vb - (s+t)<<1); cmp < int64(^s&1) { // nearer s, or halfway and s even
		d = s
	}
	if !win {
		d = s
	}
	if !uin {
		d = t
	}
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if wpin {
		sp10 = tp10
	}
	if upin != wpin && s >= 10 {
		d = sp10
	}
	return d, k
}

// ascii8 returns the eight decimal digits of v < 10^8 as ASCII bytes in a
// little-endian word, the most significant digit first: each step splits
// every lane of the previous one in two (4+4, 2+2, 1+1 digits), with
// multiply-shift division by 10^4, 100 and 10 that is exact in range.
func ascii8(v uint64) uint64 {
	x := v/10000 | v%10000<<32
	hi := (x * 10486 >> 20) & 0x0000007F_0000007F // each 32-bit lane / 100
	x = hi | (x-100*hi)<<16
	hi = (x * 103 >> 10) & 0x000F000F_000F000F // each 16-bit lane / 10
	x = hi | (x-10*hi)<<8
	return x + 0x30303030_30303030
}

// appendJSONFloat appends the finite f as encoding/json does: %f with the
// shortest digits that read back as f, except %e with the exponent's
// leading zero dropped below 1e-6 and from 1e21 up.
func appendJSONFloat(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		b = append(b, '-')
		u &^= 1 << 63
	}
	if u == 0 {
		return append(b, '0')
	}
	d, e10 := schubfach(u)
	nd := bits.Len64(d) * 1233 >> 12 // the number of digits, or one less
	if d >= uint64pow10[nd] {
		nd++
	}
	dp := nd + e10 // the value is 0.<digits>·10^dp
	// The digits padded to 17, as 1+8+8; the two words also count the
	// padding and any zeros d ends in.
	d *= uint64pow10[17-nd]
	lead, rest := d/1e16, d%1e16
	mid, low := ascii8(rest/1e8), ascii8(rest%1e8)
	zeros := bits.LeadingZeros64(low^0x30303030_30303030) >> 3
	if zeros == 8 {
		zeros += bits.LeadingZeros64(mid^0x30303030_30303030) >> 3
	}
	sig := 17 - zeros // significant digits

	n := len(b)
	b = slices.Grow(b, 32)[:n+32]
	if abs := math.Float64frombits(u); abs < 1e-6 || abs >= 1e21 {
		put17(b[n+1:], lead, mid, low) // d.ddde±x
		b[n], b[n+1] = b[n+1], '.'
		end := n + 1 + sig
		if sig == 1 {
			end--
		}
		x := dp - 1
		b[end], b[end+1] = 'e', '+'
		if x < 0 {
			b[end+1], x = '-', -x
		}
		end += 2
		if x >= 100 {
			b[end] = byte(x/100) + '0'
			end++
		}
		if x >= 10 {
			b[end] = byte(x/10%10) + '0'
			end++
		}
		b[end] = byte(x%10) + '0'
		return b[:end+1]
	}
	switch {
	case dp <= 0: // 0.000ddd, at most five zeros after the point
		binary.LittleEndian.PutUint64(b[n:], 0x30303030_30302E30) // "0.000000"
		put17(b[n+2-dp:], lead, mid, low)
		return b[:n+2-dp+sig]
	case dp < 17: // ddd.ddd, or ddd when the fraction is all zeros
		put17(b[n:], lead, mid, low)
		if sig <= dp {
			return b[:n+dp]
		}
		copy(b[n+dp+1:], b[n+dp:n+17])
		b[n+dp] = '.'
		return b[:n+1+sig]
	default: // an integer of 17 to 21 digits
		put17(b[n:], lead, mid, low)
		binary.LittleEndian.PutUint64(b[n+17:], 0x30303030_30303030)
		return b[:n+dp]
	}
}

// put17 writes the digit lead and the ASCII words mid and low to b[:17].
func put17(b []byte, lead, mid, low uint64) {
	_ = b[16]
	b[0] = byte(lead) + '0'
	binary.LittleEndian.PutUint64(b[1:], mid)
	binary.LittleEndian.PutUint64(b[9:], low)
}
