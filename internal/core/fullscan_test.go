package core

import (
	"os"
	"testing"
)

// TestFigureBytesUnchangedByFullScan pins the figure pipeline to renders
// recorded at commit e44783f (testdata/micro_<id>.golden) on the retired
// baseline router path — full decision scan, per-peer deferred-flush
// events, no storm fast lane — each checked byte-equal to that commit's
// default render before it was written. Beyond fig3, the two ablations
// cover the configurations where "better route" means something
// different: Gao–Rexford policy ranking and damping (under which the
// router runs the full scan).
func TestFigureBytesUnchangedByFullScan(t *testing.T) {
	for _, id := range []string{"3", "ablation-policy", "ablation-damping"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile("testdata/micro_" + id + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			fig, err := e.Run(microOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got := fig.Render(); got != string(want) {
				t.Errorf("%s: render diverged from the recorded baseline\nwant:\n%s\ngot:\n%s", id, want, got)
			}
		})
	}
}
