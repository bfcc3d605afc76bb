// Package platform_test holds the preset tests at their original import
// path so their ids stay stable; the presets themselves live in
// internal/machine (presets.go, calibrated.go).
package platform_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/machine"
)

// presetNames returns every name in the preset table, read off the list
// ByName's error advertises to users.
func presetNames(t *testing.T) []string {
	t.Helper()
	_, err := machine.ByName("")
	if err == nil {
		t.Fatal("empty preset name accepted")
	}
	msg := err.Error()
	i := strings.Index(msg, "(want one of ")
	if i < 0 || !strings.HasSuffix(msg, ")") {
		t.Fatalf("error does not list the presets: %q", msg)
	}
	return strings.Split(msg[i+len("(want one of "):len(msg)-1], ", ")
}

func TestPresetsHavePositiveParameters(t *testing.T) {
	for _, name := range presetNames(t) {
		pf, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if pf.Model.Alpha <= 0 || pf.Model.Beta <= 0 || pf.Model.Gamma <= 0 {
			t.Fatalf("%s (%s) has non-positive parameters: %v", name, pf.Name, pf.Model)
		}
	}
}

// Every spelling any surface used to accept resolves through the one table
// (hsumma-run's private list had the -cal presets, the shared one the
// graphene/bluegenep aliases), to the preset it names.
func TestByName(t *testing.T) {
	want := map[string]string{
		"grid5000":     "Grid5000/Graphene",
		"graphene":     "Grid5000/Graphene",
		"grid5000-cal": "Grid5000/Graphene (calibrated)",
		"grid5000cal":  "Grid5000/Graphene (calibrated)",
		"bgp":          "BlueGene/P (Shaheen)",
		"bluegene":     "BlueGene/P (Shaheen)",
		"bluegenep":    "BlueGene/P (Shaheen)",
		"bgp-cal":      "BlueGene/P (Shaheen, calibrated)",
		"bgpcal":       "BlueGene/P (Shaheen, calibrated)",
		"exascale":     "Exascale (projected)",
	}
	names := presetNames(t)
	if len(names) != len(want) {
		t.Fatalf("%d preset names %v, want %d", len(names), names, len(want))
	}
	for _, name := range names {
		if _, ok := want[name]; !ok {
			t.Fatalf("preset %q missing from this test", name)
		}
	}
	for name, full := range want {
		pf, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if pf.Name != full {
			t.Fatalf("ByName(%q) = %q, want %q", name, pf.Name, full)
		}
	}
	if _, err := machine.ByName("cray"); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

// The paper's condition arithmetic must hold with the preset parameters:
// α/β > 2nb/p on all three platforms with their experiment configurations.
func TestPaperConditionArithmetic(t *testing.T) {
	cases := []struct {
		pf      machine.Platform
		n, b, p float64
	}{
		{machine.Grid5000(), 8192, 64, 128},
		{machine.BlueGeneP(), 65536, 256, 16384},
		{machine.Exascale(), 1 << 22, 256, 1 << 20},
	}
	for _, c := range cases {
		ratio := c.pf.Model.Alpha / c.pf.Model.Beta
		threshold := 2 * c.n * c.b / c.p
		if ratio <= threshold {
			t.Fatalf("%s: α/β = %g must exceed 2nb/p = %g (paper §V)", c.pf.Name, ratio, threshold)
		}
	}
}

// The BG/P γ calibration: SUMMA's measured compute time (50.2 − 36.46 s)
// on 16384 cores must be reproduced within 5%.
func TestBGPGammaCalibration(t *testing.T) {
	pf := machine.BlueGeneP()
	n := 65536.0
	flops := 2 * n * n * n / 16384
	got := pf.Model.Compute(flops)
	want := 50.2 - 36.46
	if math.Abs(got-want) > 0.05*want {
		t.Fatalf("BG/P compute time %g, paper implies %g", got, want)
	}
}

// The calibrated BG/P α must reproduce the measured SUMMA communication
// time through the Van de Geijn closed form (the fit recorded in
// calibrated.go).
func TestBGPCalibrationAnchor(t *testing.T) {
	pf := machine.BlueGenePCalibrated()
	n, b, p := 65536.0, 256.0, 16384.0
	sq := math.Sqrt(p)
	latFactor := 2 * (n / b) * (math.Log2(sq) + sq - 1)
	bwFactor := 2 * (n * n / sq) * 2 * (sq - 1) / sq
	got := latFactor*pf.Model.Alpha + bwFactor*pf.Model.Beta
	if math.Abs(got-36.46) > 0.05*36.46 {
		t.Fatalf("calibrated BG/P predicts SUMMA comm %g, measured 36.46", got)
	}
}

// The calibrated Grid'5000 parameters must reproduce both measured anchors
// (b=64 → ~24 s, b=512 → ~4.53 s) within 10%.
func TestGrid5000CalibrationAnchors(t *testing.T) {
	pf := machine.Grid5000Calibrated()
	n, p := 8192.0, 128.0
	sq := math.Sqrt(p)
	for _, c := range []struct{ b, want float64 }{{64, 24}, {512, 4.53}} {
		latFactor := 2 * (n / c.b) * (math.Log2(sq) + sq - 1)
		bwFactor := 2 * (n * n / sq) * 2 * (sq - 1) / sq
		got := latFactor*pf.Model.Alpha + bwFactor*pf.Model.Beta
		if math.Abs(got-c.want) > 0.10*c.want {
			t.Fatalf("calibrated Grid5000 b=%g predicts %g, measured %g", c.b, got, c.want)
		}
	}
}

func TestContentionString(t *testing.T) {
	if machine.ContentionNone.String() != "none" || machine.ContentionShared.String() != "shared-segment" ||
		machine.ContentionTorus.String() != "torus" {
		t.Fatal("contention names wrong")
	}
	if machine.Contention(99).String() == "" {
		t.Fatal("unknown contention empty string")
	}
}
