package hsumma

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/tune"
)

// knobValue returns a legal non-default value for knob i of core.Knobs,
// chosen by the field's kind so a knob added later is covered without
// touching this test (an unknown kind fails it loudly instead).
func knobValue(t *testing.T, f reflect.StructField, i int) reflect.Value {
	t.Helper()
	v := reflect.New(f.Type).Elem()
	switch f.Type.Kind() {
	case reflect.Int:
		v.SetInt(int64(2 + i)) // distinct per knob: a copy line wired to the wrong field shows
	case reflect.String:
		v.SetString(string(BcastVanDeGeijn))
	default:
		t.Fatalf("core.Knobs.%s has kind %s: teach knobValue a non-default value for it", f.Name, f.Type.Kind())
	}
	return v
}

// TestKnobSurfacesAgree pins the one-declaration contract from the flat
// side: every field of core.Knobs exists under the same name on Config,
// SimConfig and tune.ResolveParams, and a value set through any of them
// reaches the resolver — and the resolved spec — as the same Knobs. Dropping
// one copy line from SimConfig.Config, Config.resolveParams,
// ResolveParams.Knobs or ResolveParams.SetKnobs fails the knob it served.
// No surface may grow a Segments field back, and no virtual-world or
// planning surface an Overlap field: the paper's SUMMA and HSUMMA, and the
// live runtime, do not overlap communication with computation. Nor may any
// grow the distributed Strassen recursion's StrassenLevels or
// StrassenInnerGroups back, or the rank-local Strassen kernel's
// LocalStrassen or StrassenCutoff: every local update is the packed GEMM
// the paper's algorithms run.
func TestKnobSurfacesAgree(t *testing.T) {
	// Segments left with the chain broadcast; it must not come back as a
	// knob (sched.Schedule.Segments, one schedule's segment count, stays).
	for _, surface := range []any{core.Knobs{}, Config{}, SimConfig{}} {
		if _, ok := reflect.TypeOf(surface).FieldByName("Segments"); ok {
			t.Errorf("%T has a Segments field: the paper's two broadcasts take no segment knob", surface)
		}
	}
	for _, surface := range []any{Config{}, SimConfig{}, PlanConfig{}, tune.Request{}, simnet.VConfig{}} {
		if _, ok := reflect.TypeOf(surface).FieldByName("Overlap"); ok {
			t.Errorf("%T has an Overlap field: neither the live runtime nor the paper's algorithms overlap communication with computation", surface)
		}
	}
	for _, surface := range []any{core.Knobs{}, Config{}, SimConfig{}, tune.ResolveParams{}} {
		for _, name := range []string{"StrassenLevels", "StrassenInnerGroups"} {
			if _, ok := reflect.TypeOf(surface).FieldByName(name); ok {
				t.Errorf("%T has a %s field: Strassen is not a distribution", surface, name)
			}
		}
		for _, name := range []string{"LocalStrassen", "StrassenCutoff"} {
			if _, ok := reflect.TypeOf(surface).FieldByName(name); ok {
				t.Errorf("%T has a %s field: the local Strassen kernel lost to the packed kernel and was deleted", surface, name)
			}
		}
	}
	shape := SquareShape(64)
	kt := reflect.TypeOf(core.Knobs{})
	for i := 0; i < kt.NumField(); i++ {
		f := kt.Field(i)
		t.Run(f.Name, func(t *testing.T) {
			v := knobValue(t, f, i)
			var want core.Knobs
			reflect.ValueOf(&want).Elem().Field(i).Set(v)
			set := func(surface any) {
				fld := reflect.ValueOf(surface).Elem().FieldByName(f.Name)
				if !fld.IsValid() {
					t.Fatalf("%T has no field %s", surface, f.Name)
				}
				fld.Set(v)
			}
			cfg := Config{Procs: 4, Algorithm: AlgSUMMA}
			sim := SimConfig{Procs: 4, Algorithm: AlgSUMMA}
			direct := tune.ResolveParams{Shape: shape, Procs: 4, Algorithm: AlgSUMMA}
			set(&cfg)
			set(&sim)
			set(&direct)
			fromCfg, err := cfg.resolveParams(shape)
			if err != nil {
				t.Fatal(err)
			}
			fromSim, err := sim.Config().resolveParams(shape)
			if err != nil {
				t.Fatal(err)
			}
			roundTrip := tune.ResolveParams{Shape: shape, Procs: 4, Algorithm: AlgSUMMA}
			roundTrip.SetKnobs(want)
			var specs []core.Knobs
			for _, s := range []struct {
				name string
				rp   tune.ResolveParams
			}{{"Config", fromCfg}, {"SimConfig", fromSim}, {"ResolveParams", direct}, {"SetKnobs", roundTrip}} {
				if got := s.rp.Knobs(); got != want {
					t.Errorf("%s: pinned knobs %+v, want %+v", s.name, got, want)
				}
				spec, err := tune.ResolveSpec(s.rp)
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				if got := reflect.ValueOf(spec.Opts.Knobs).Field(i); got.Interface() != v.Interface() {
					t.Errorf("%s: resolved spec has %s = %v, want %v", s.name, f.Name, got, v)
				}
				specs = append(specs, spec.Opts.Knobs)
			}
			for _, k := range specs[1:] {
				if k != specs[0] {
					t.Errorf("surfaces resolve to different knobs: %+v vs %+v", k, specs[0])
				}
			}
		})
	}
}
