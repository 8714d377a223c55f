package experiment

import (
	"strings"
	"testing"
	"time"

	"bgpsim/internal/bgp"
	"bgpsim/internal/mrai"
)

// schemeMRAIs applies sc and returns the MRAI a low-degree and a
// high-degree router would run with (the degree scheme's two arms; one
// value for every other scheme).
func schemeMRAIs(sc Scheme) []time.Duration {
	var p bgp.Params
	sc.Apply(&p)
	return []time.Duration{p.MRAI(0).MRAI(mrai.Snapshot{}), p.MRAI(100).MRAI(mrai.Snapshot{})}
}

// TestParseSchemeSeconds pins the seconds grammar: finite, non-negative
// values that fit a time.Duration are accepted; NaN, infinities,
// negatives and overflowing magnitudes are errors, never a silent MRAI 0.
func TestParseSchemeSeconds(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []time.Duration // nil: must be rejected
	}{
		{"mrai=0.5", []time.Duration{500 * time.Millisecond, 500 * time.Millisecond}},
		{"mrai=0", []time.Duration{0, 0}},
		{"mrai=-0", []time.Duration{0, 0}},
		{"batch=2", []time.Duration{2 * time.Second, 2 * time.Second}},
		{"degree=0.5,2.25", []time.Duration{500 * time.Millisecond, 2250 * time.Millisecond}},
		{"mrai=9e9", []time.Duration{9e18, 9e18}},
		{"mrai=NaN", nil},
		{"mrai=nan", nil},
		{"mrai=Inf", nil},
		{"mrai=+Inf", nil},
		{"mrai=-Inf", nil},
		{"mrai=1e300", nil},
		{"mrai=9.3e9", nil}, // 9.3e18 ns > MaxInt64
		{"mrai=-1", nil},
		{"batch=NaN", nil},
		{"batch=1e300", nil},
		{"degree=NaN,1", nil},
		{"degree=1,Inf", nil},
	} {
		sc, err := ParseScheme(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%s: accepted, MRAIs %v", tc.in, schemeMRAIs(sc))
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.in, err)
			continue
		}
		if got := schemeMRAIs(sc); got[0] != tc.want[0] || got[1] != tc.want[1] {
			t.Errorf("%s: MRAIs %v, want %v", tc.in, got, tc.want)
		}
	}
}

// FuzzParseScheme: no input panics, and every accepted scheme runs with
// non-negative MRAIs.
func FuzzParseScheme(f *testing.F) {
	for _, s := range []string{
		"dynamic", "batch", "batch+dynamic", "batch=0.5", "mrai=30",
		"degree=0.5,2.25", "mrai=NaN", "mrai=1e300", "degree=,", "mrai=0x1p-2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseScheme(s)
		if err != nil {
			return
		}
		if sc.Apply == nil || strings.TrimSpace(sc.Name) == "" {
			t.Fatalf("%q: accepted scheme is incomplete: %+v", s, sc)
		}
		for _, d := range schemeMRAIs(sc) {
			if d < 0 {
				t.Fatalf("%q: negative MRAI %v", s, d)
			}
		}
	})
}
