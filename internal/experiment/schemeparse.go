package experiment

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"bgpsim/internal/mrai"
)

// ParseScheme translates the compact scheme syntax shared by the CLI
// (`bgpsim -scheme`) and the wire-encoded churn descriptors
// (internal/dist): a scheme named as a string is reconstructible on any
// worker, which is what lets a churn submission carry its scheme across
// the coordinator protocol without serializing closures.
//
// Syntax: mrai=<seconds> | degree=<low>,<high> | dynamic | batch[=<seconds>]
// | batch+dynamic.
func ParseScheme(s string) (Scheme, error) {
	switch {
	case s == "dynamic":
		return PaperDynamicMRAI(), nil
	case s == "batch+dynamic":
		return BatchingDynamic(mrai.PaperLevels, mrai.PaperUpTh, mrai.PaperDownTh), nil
	case s == "batch":
		return Batching(500 * time.Millisecond), nil
	case strings.HasPrefix(s, "batch="):
		d, err := parseSchemeSeconds(strings.TrimPrefix(s, "batch="))
		if err != nil {
			return Scheme{}, err
		}
		return Batching(d), nil
	case strings.HasPrefix(s, "mrai="):
		d, err := parseSchemeSeconds(strings.TrimPrefix(s, "mrai="))
		if err != nil {
			return Scheme{}, err
		}
		return ConstantMRAI(d), nil
	case strings.HasPrefix(s, "degree="):
		parts := strings.Split(strings.TrimPrefix(s, "degree="), ",")
		if len(parts) != 2 {
			return Scheme{}, fmt.Errorf("degree scheme needs low,high seconds: %q", s)
		}
		low, err := parseSchemeSeconds(parts[0])
		if err != nil {
			return Scheme{}, err
		}
		high, err := parseSchemeSeconds(parts[1])
		if err != nil {
			return Scheme{}, err
		}
		return DegreeMRAI(5, low, high), nil
	default:
		return Scheme{}, fmt.Errorf("unknown scheme %q", s)
	}
}

// parseSchemeSeconds parses a non-negative seconds value that fits a
// time.Duration. NaN, infinities and values past ~292 years are refused:
// converting them to a Duration yields math.MinInt64, which would
// silently run as MRAI 0.
func parseSchemeSeconds(s string) (time.Duration, error) {
	v, err := strconv.ParseFloat(s, 64)
	ns := v * float64(time.Second)
	// The negated comparison is also true for NaN; float64(MaxInt64)
	// rounds up to 2^63, the first value that no longer converts.
	if err != nil || v < 0 || !(ns < float64(math.MaxInt64)) {
		return 0, fmt.Errorf("bad seconds value %q", s)
	}
	return time.Duration(ns), nil
}
