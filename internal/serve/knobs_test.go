package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tune"
)

// TestKnobWireSurfacesAgree is the wire half of the root package's
// TestKnobSurfacesAgree: every field of core.Knobs, under its json name, is
// settable as a JSON body member and as a raw body's query parameter, and
// both reach the resolver as the same Knobs (through ResolveParams.SetKnobs,
// so a copy line dropped there fails here). Values are picked by kind, so a
// knob added to core.Knobs is covered — or, if parseRaw's name table was
// not extended, caught — without touching this test.
func TestKnobWireSurfacesAgree(t *testing.T) {
	scheduler := NewScheduler(SchedulerConfig{})
	defer scheduler.Close()
	h := NewHandler(scheduler, HandlerConfig{DefaultProcs: 4}).(*handler)
	kt := reflect.TypeOf(core.Knobs{})
	for i := 0; i < kt.NumField(); i++ {
		f := kt.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		t.Run(f.Name, func(t *testing.T) {
			if name == "" {
				t.Fatalf("core.Knobs.%s has no json name", f.Name)
			}
			v := reflect.New(f.Type).Elem()
			var inJSON, inQuery string
			switch f.Type.Kind() {
			case reflect.Int:
				v.SetInt(int64(2 + i))
				inJSON = fmt.Sprint(2 + i)
				inQuery = inJSON
			case reflect.Bool:
				v.SetBool(true)
				inJSON, inQuery = "true", "true"
			case reflect.String:
				v.SetString(string(sched.VanDeGeijn))
				inJSON, inQuery = `"vandegeijn"`, "vandegeijn"
			default:
				t.Fatalf("core.Knobs.%s has kind %s: teach this test a non-default value for it", f.Name, f.Type.Kind())
			}
			var want core.Knobs
			reflect.ValueOf(&want).Elem().Field(i).Set(v)

			body := fmt.Sprintf(`{"m":1,"n":1,"k":1,"a":[1],"b":[1],%q:%s}`, name, inJSON)
			jreq := httptest.NewRequest(http.MethodPost, "/multiply", strings.NewReader(body))
			raw := make([]byte, 16) // A then B, one float64 each
			qreq := httptest.NewRequest(http.MethodPost, "/multiply?m=1&k=1&n=1&"+name+"="+inQuery, strings.NewReader(string(raw)))
			for _, s := range []struct {
				surface string
				parse   func(*http.Request, *scratch) (_, _ *matrix.Dense, _ tune.ResolveParams, _ error)
				req     *http.Request
			}{{"JSON body", h.parseJSON, jreq}, {"query string", h.parseRaw, qreq}} {
				sc := scratchPool.Get().(*scratch)
				_, _, rp, err := s.parse(s.req, sc)
				scratchPool.Put(sc)
				if err != nil {
					t.Fatalf("%s: %v", s.surface, err)
				}
				if got := rp.Knobs(); got != want {
					t.Errorf("%s: %s=%s resolved to %+v, want %+v", s.surface, name, inQuery, got, want)
				}
			}
		})
	}
}
