// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package serve

// The Eisel-Lemire conversion of a decimal mantissa and exponent to the
// nearest float64, ported from Go's strconv/eisel_lemire.go (the LICENSE
// above is Go's, https://go.dev/LICENSE). The algorithm was published in
// 2020 and is discussed at https://nigeltao.github.io/blog/2020/eisel-lemire.html;
// strconv keeps it unexported, so parseNumber carries its own copy. Only
// the float64 flavour is kept, and the table of 128-bit powers of ten is
// computed with math/big on first use instead of listed.

import (
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// eiselLemire64 returns the float64 nearest to ±man·10^exp10 and true, or
// false when it cannot decide: exp10 outside the table, a result in the
// subnormal or infinite range, or a product too close to a halfway point.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// The terse comments in this function body refer to sections of the
	// https://nigeltao.github.io/blog/2020/eisel-lemire.html blog post.

	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < detailedPowersOfTenMinExp10 || detailedPowersOfTenMaxExp10 < exp10 {
		return 0, false
	}
	pow := &detailedPowersOfTen()[exp10-detailedPowersOfTenMinExp10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	//
	// The if block is equivalent to (but has fewer branches than):
	//   if retExp2 <= 0 || retExp2 >= 0x7FF { etc }
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// detailedPowersOfTen{Min,Max}Exp10 is the power of 10 represented by the
// first and last rows of detailedPowersOfTen. Both bounds are inclusive.
const (
	detailedPowersOfTenMinExp10 = -348
	detailedPowersOfTenMaxExp10 = +347
)

// detailedPowersOfTen returns the 128-bit mantissa approximations (rounded
// down) to the powers of 10, row i holding 10^(i+MinExp10) as {low, high}
// 64-bit halves with the top bit of high set. For example:
//
//   - 1e43 ≈ (0xE596B7B0_C643C719                   * (2 ** 79))
//   - 1e43 = (0xE596B7B0_C643C719_6D9CCD05_D0000000 * (2 ** 15))
//
// The exponents are implied by a linear expression with slope
// 217706.0/65536.0 ≈ log(10)/log(2). The table is computed once per process
// (well under a millisecond) and equals strconv's listed one row for row.
var detailedPowersOfTen = sync.OnceValue(func() *[detailedPowersOfTenMaxExp10 - detailedPowersOfTenMinExp10 + 1][2]uint64 {
	t := new([detailedPowersOfTenMaxExp10 - detailedPowersOfTenMinExp10 + 1][2]uint64)
	// row truncates x to its top 128 bits.
	row := func(x *big.Int) [2]uint64 {
		x.Rsh(x, uint(x.BitLen()-128))
		lo := x.Uint64()
		return [2]uint64{lo, x.Rsh(x, 64).Uint64()}
	}
	p, ten := big.NewInt(1), big.NewInt(10)
	for k := 0; k <= -detailedPowersOfTenMinExp10; k++ {
		if k <= detailedPowersOfTenMaxExp10 { // 10^k·2^128 has more than 128 bits: enough to truncate
			t[k-detailedPowersOfTenMinExp10] = row(new(big.Int).Lsh(p, 128))
		}
		if k > 0 { // ⌊2^(128+len(10^k)) / 10^k⌋ has 129 bits: enough to truncate
			q := new(big.Int).Lsh(big.NewInt(1), uint(128+p.BitLen()))
			t[-k-detailedPowersOfTenMinExp10] = row(q.Quo(q, p))
		}
		p.Mul(p, ten)
	}
	return t
})
