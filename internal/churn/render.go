package churn

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// Render returns the canonical text form of the run's full metric
// stream: one line per window, trials in order, windows in event order.
// Window times are offsets from program start, so the rendering is
// independent of how initial convergence was reached (cold and warm
// starts render identically) and is the byte string the determinism
// tests and the CI churn job compare across worker counts and
// coordinator restarts.
func (rr RunResult) Render() string {
	var b strings.Builder
	sc := rr.Scenario
	// "shards=0" is a fixed literal, kept from a retired execution-mode
	// field so the stream stays byte-identical: the committed churn
	// stream digests (perfbench/expected/churn*.sha256) and the churn
	// determinism pins hash this header and must not change.
	fmt.Fprintf(&b, "churn %s topo=%s n=%d scheme=%s seed=%d trials=%d shards=0\n",
		sc.Program.Kind, sc.Topology.Kind, sc.Topology.N, schemeLabel(sc.Scheme), sc.Seed, len(rr.Trials))
	for _, tr := range rr.Trials {
		fmt.Fprintf(&b, "trial %d: windows=%d\n", tr.Trial, len(tr.Windows))
		for _, w := range tr.Windows {
			fmt.Fprintf(&b, "  win %3d %-9s t=+%-9.3fs delay=%.3fs ann=%d wd=%d proc=%d disc=%d chg=%d\n",
				w.Index, w.Event, w.At.Seconds(), w.Delay.Seconds(),
				w.Announcements, w.Withdrawals, w.Processed, w.Discarded, w.RouteChanges)
		}
	}
	return b.String()
}

// schemeLabel names the scheme in the rendered header; the empty scheme
// (default parameters) renders as "default".
func schemeLabel(s string) string {
	if s == "" {
		return "default"
	}
	return s
}

// Digest returns a 64-bit FNV-1a hash of the rendered stream — the
// compact determinism pin the run-twice tests compare across worker
// counts.
func (rr RunResult) Digest() uint64 {
	h := fnv.New64a()
	h.Write([]byte(rr.Render()))
	return h.Sum64()
}
