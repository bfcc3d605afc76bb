// Package hockney_test holds the Hockney-model tests at their original
// import path so their ids stay stable; the model itself lives in
// internal/machine (machine.go).
package hockney_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func TestPointToPoint(t *testing.T) {
	m := machine.Model{Alpha: 1e-4, Beta: 1e-9}
	got := m.PointToPoint(1e6)
	want := 1e-4 + 1e6*1e-9
	if math.Abs(got-want) > 1e-18 {
		t.Fatalf("T(1MB) = %g, want %g", got, want)
	}
}

func TestZeroMessagePaysLatencyOnly(t *testing.T) {
	m := machine.Model{Alpha: 5e-6, Beta: 1e-9}
	if m.PointToPoint(0) != 5e-6 {
		t.Fatal("zero-byte message should cost exactly α")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	machine.Model{}.PointToPoint(-1)
}

func TestCompute(t *testing.T) {
	m := machine.Model{Gamma: 1e-9}
	if m.Compute(2e9) != 2.0 {
		t.Fatalf("compute = %v", m.Compute(2e9))
	}
	// Threaded compute divides by Speedup: exactly 1 for serial ranks, so
	// serial paths stay bit-identical, and the Amdahl curve at the constant
	// serial fraction otherwise.
	if machine.Speedup(1) != 1 || machine.Speedup(0) != 1 {
		t.Fatal("machine.Speedup(t<=1) must be exactly 1")
	}
	tf := 4.0
	want := tf / (1 + machine.ThreadOverhead*(tf-1))
	if got := machine.Speedup(4); got != want || math.Abs(got-3.67) > 0.01 {
		t.Fatalf("machine.Speedup(4) = %g, want %g (≈ 3.67)", got, want)
	}
}

func TestElemBytes(t *testing.T) {
	if machine.ElemBytes(100) != 800 {
		t.Fatalf("machine.ElemBytes(100) = %v", machine.ElemBytes(100))
	}
}

// Property: T is affine — T(a+b) = T(a)+T(b)-α.
func TestQuickAffine(t *testing.T) {
	m := machine.Model{Alpha: 3e-6, Beta: 2e-9}
	f := func(a, b uint32) bool {
		x, y := float64(a), float64(b)
		lhs := m.PointToPoint(x + y)
		rhs := m.PointToPoint(x) + m.PointToPoint(y) - m.Alpha
		return math.Abs(lhs-rhs) <= 1e-12*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: monotonic in message size.
func TestQuickMonotone(t *testing.T) {
	m := machine.Model{Alpha: 1e-5, Beta: 1e-9}
	f := func(a, b uint32) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		return m.PointToPoint(x) <= m.PointToPoint(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	if s := (machine.Model{Alpha: 1, Beta: 2, Gamma: 3}).String(); len(s) == 0 {
		t.Fatal("empty String")
	}
}
