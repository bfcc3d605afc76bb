package hsumma

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/blas"
)

// productHash is the sha256 of C's float64 bits, row-major little-endian.
func productHash(c *Matrix) string {
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < c.Rows; i++ {
		for _, v := range c.Data[i*c.Stride : i*c.Stride+c.Cols] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The live transport multiplies panels in the kernel's packed layout: the
// owner packs once, the broadcast ships micro-panels and every receiver
// runs the column kernel on them in place. The layout, the kc blocking and
// each element's FMA chain are those of blas.Gemm on row-major panels, so
// every product keeps the bits it had before panels were packed. The
// literals were captured from that row-major implementation under the
// AVX2+FMA kernel; they pin the live path, threads and tails included.
func TestPackedPanelsMatchParent(t *testing.T) {
	if !blas.HasFMAKernel() {
		t.Skip("hashes are those of the AVX2+FMA kernel")
	}
	cases := []struct {
		name    string
		m, k, n int
		cfg     Config
		want    string
	}{
		{"hsumma16_b32_binomial", 512, 512, 512,
			Config{Procs: 16, Algorithm: AlgHSUMMA, Groups: 4, BlockSize: 32, Broadcast: BcastBinomial}, "958b5ac584813b7c303c29b53fe3521e9f273a5c3a541b407f233e865808441f"},
		{"hsumma16_b32_vandegeijn", 512, 512, 512,
			Config{Procs: 16, Algorithm: AlgHSUMMA, Groups: 4, BlockSize: 32, Broadcast: BcastVanDeGeijn}, "66ac53d45e1eb8fb28464856a2ef52680f55f4cd2a7e0852061a7ea2277104f4"},
		{"summa1x2_b256", 512, 512, 512,
			Config{Procs: 2, Grid: &[2]int{1, 2}, Algorithm: AlgSUMMA, BlockSize: 256}, "5cfd6bbe36aa8f6b08008912cc17c8efa06980937a1a6ca3cb328a515ce315c0"},
		{"hsumma4", 96, 96, 96,
			Config{Procs: 4, Algorithm: AlgHSUMMA, Groups: 2, BlockSize: 8}, "a0f0d197cf44fbdbc56f267551f7ddae5418e2cdaf9a02b9365160e053bc820b"},
		{"summa6_rect", 390, 250, 333,
			Config{Procs: 6, Algorithm: AlgSUMMA, BlockSize: 16}, "04653cc5b286a576e0072f117293d9baf57019d4aa19341cba62303b1e86d855"},
		{"cannon4", 96, 96, 96,
			Config{Procs: 4, Algorithm: AlgCannon}, "f4e1139853d90e9e43d0fd1c856ddb57ba053c04a313605e8d0c741a7e78dd3e"},
		{"summa_threads2", 384, 384, 384,
			Config{Procs: 2, Grid: &[2]int{1, 2}, Algorithm: AlgSUMMA, BlockSize: 64, Threads: 2}, "2b1632f8cb2a5df5e676f8ab9d30121d33df9c783386b97e87dc7e4a12130389"},
		{"hsumma_outer3b", 192, 192, 192,
			Config{Procs: 4, Algorithm: AlgHSUMMA, Groups: 2, BlockSize: 8, OuterBlockSize: 24}, "389dfc1e0fbc2411603778f1eeadc72c6c95f4baadc5c29896ea546c9e169333"},
		{"multilevel2", 128, 128, 128,
			Config{Procs: 16, Algorithm: AlgMultilevel, BlockSize: 8,
				Levels: []Level{{I: 2, J: 2, BlockSize: 32}, {I: 2, J: 2, BlockSize: 16}}}, "60c4e4d4e79dded66a69b7511672efdf7686c1c4a326aca1ca29304ffa09ad4b"},
		{"fox4", 96, 96, 96,
			Config{Procs: 4, Algorithm: AlgFox}, "762afc7cddcc60fe82e9831f3ffe171b0fc28e842bc1986e1799ae6ca536a00e"},
		{"cannon1_ragged", 100, 100, 100,
			Config{Procs: 1, Algorithm: AlgCannon}, "fd19f543dfe9643bb360d94312139ea2926977c314ccf3f05fc525f7233fe408"},
		{"hsumma_threads2", 384, 384, 384,
			Config{Procs: 4, Algorithm: AlgHSUMMA, Groups: 2, BlockSize: 32, Threads: 2}, "0a935fdd0e4d8433f4a1f099b6431570420faf4be719487bcbb7f22f063db146"},
		{"panel_wider_than_kc", 130, 1024, 90,
			Config{Procs: 2, Grid: &[2]int{1, 2}, Algorithm: AlgSUMMA, BlockSize: 512}, "5aa8adf0b383d4f51de9f92fba8e428b58e02025af5943b0972b7511ebe7bcdc"},
		{"summa4_ragged_tails", 106, 70, 94,
			Config{Procs: 4, Algorithm: AlgSUMMA, BlockSize: 7}, "bc979e816d4fc42959f04cba33edb9a49731ce7408139d52de38f87383f2b252"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := RandomMatrix(tc.m, tc.k, uint64(700+2*i))
			b := RandomMatrix(tc.k, tc.n, uint64(701+2*i))
			c, _, err := Multiply(a, b, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := productHash(c); got != tc.want {
				t.Errorf("sha256(C) = %s, want %s", got, tc.want)
			}
		})
	}
}
