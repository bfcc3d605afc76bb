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

// resetOverhead restores the default serial fraction after a calibration
// test, so the package-global state never leaks into other tests.
func resetOverhead(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { machine.SetThreadOverhead(machine.DefaultThreadOverhead) })
}

func TestCalibrateFromScaling(t *testing.T) {
	resetOverhead(t)
	// Points generated by the curve itself with s = 0.10 must recover it.
	s := 0.10
	points := map[int]float64{}
	for _, th := range []int{2, 4, 8} {
		tf := float64(th)
		points[th] = tf / (1 + s*(tf-1))
	}
	fit, ok := machine.CalibrateFromScaling(points)
	if !ok {
		t.Fatal("calibration rejected usable points")
	}
	if math.Abs(fit-s) > 1e-12 {
		t.Fatalf("fit %g, want %g", fit, s)
	}
	if machine.ThreadOverhead() != fit {
		t.Fatalf("machine.ThreadOverhead() = %g after fit %g", machine.ThreadOverhead(), fit)
	}
	// machine.Speedup must now follow the calibrated curve...
	want := 4 / (1 + s*3)
	if got := machine.Speedup(4); math.Abs(got-want) > 1e-12 {
		t.Fatalf("machine.Speedup(4) = %g under s=%g, want %g", got, s, want)
	}
	// ...while the serial identity stays exact, bit for bit.
	if machine.Speedup(1) != 1 || machine.Speedup(0) != 1 {
		t.Fatal("machine.Speedup(t<=1) must stay exactly 1 under calibration")
	}
}

func TestCalibrateFallsBackWithoutPoints(t *testing.T) {
	resetOverhead(t)
	for _, points := range []map[int]float64{
		nil,
		{1: 1.0}, // t=1 carries no scaling information
		{4: 0.0}, // non-positive speedup is unusable
		{4: -2.5},
	} {
		fit, ok := machine.CalibrateFromScaling(points)
		if ok {
			t.Fatalf("calibration accepted unusable points %v", points)
		}
		if fit != machine.DefaultThreadOverhead {
			t.Fatalf("fallback fit %g, want the %g default", fit, machine.DefaultThreadOverhead)
		}
	}
}

func TestSetThreadOverheadClamps(t *testing.T) {
	resetOverhead(t)
	machine.SetThreadOverhead(-0.5)
	if machine.ThreadOverhead() != 0 {
		t.Fatalf("negative overhead not clamped to 0: %g", machine.ThreadOverhead())
	}
	machine.SetThreadOverhead(3)
	if machine.ThreadOverhead() != 1 {
		t.Fatalf("overhead above 1 not clamped: %g", machine.ThreadOverhead())
	}
	machine.SetThreadOverhead(math.NaN())
	if machine.ThreadOverhead() != 1 {
		t.Fatalf("NaN must be ignored, have %g", machine.ThreadOverhead())
	}
}

// Sub-linear measured scaling (a saturated host) must fit a larger serial
// fraction than near-linear scaling, and the clamp keeps pathological
// measurements (speedup < 1) inside the model's valid range.
func TestCalibrateOrdersBySaturation(t *testing.T) {
	resetOverhead(t)
	nearLinear, _ := machine.CalibrateFromScaling(map[int]float64{2: 1.98, 4: 3.9})
	saturated, _ := machine.CalibrateFromScaling(map[int]float64{2: 1.3, 4: 1.6})
	if nearLinear >= saturated {
		t.Fatalf("near-linear fit %g not below saturated fit %g", nearLinear, saturated)
	}
	pathological, _ := machine.CalibrateFromScaling(map[int]float64{2: 0.5, 4: 0.5})
	if pathological > 1 {
		t.Fatalf("pathological fit %g escaped the clamp", pathological)
	}
}
