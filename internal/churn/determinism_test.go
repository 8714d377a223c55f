package churn

import (
	"context"
	"strings"
	"testing"
	"time"

	"bgpsim/internal/topology"
)

// TestChurnDeterminismMatrix is the run-twice digest pin: for a fixed
// (seed, program), the rendered metric stream must be byte-identical
// across trial worker counts {1, 4}, and every cell is run twice to pin
// run-to-run determinism. The header keeps its frozen "shards=0" token
// (see RunResult.Render).
func TestChurnDeterminismMatrix(t *testing.T) {
	programs := []Spec{
		{Kind: PoissonLinkFlap, Rate: 0.1, Duration: 50 * time.Second,
			HoldMin: 4 * time.Second, HoldMax: 12 * time.Second},
		{Kind: RollingOutage, Regions: 2, Period: 40 * time.Second, Fraction: 0.1,
			HoldMin: 10 * time.Second, HoldMax: 15 * time.Second},
	}
	for _, prog := range programs {
		prog := prog
		t.Run(string(prog.Kind), func(t *testing.T) {
			var golden string
			for _, workers := range []int{1, 4} {
				sc := Scenario{
					Topology: topology.Spec{Kind: topology.KindSkewed7030, N: 30},
					Scheme:   "mrai=0.5",
					Program:  prog,
					Seed:     7,
				}
				rr, err := Run(context.Background(), sc, 2, workers, nil)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := rr.Render()
				again, err := Run(context.Background(), sc, 2, workers, nil)
				if err != nil {
					t.Fatalf("workers=%d rerun: %v", workers, err)
				}
				if again.Render() != got {
					t.Fatalf("workers=%d: run-twice stream differs", workers)
				}
				if header, _, _ := strings.Cut(got, "\n"); !strings.HasSuffix(header, " shards=0") {
					t.Errorf("header lost its frozen shards=0 token: %q", header)
				}
				if golden == "" {
					golden = got
				} else if got != golden {
					t.Errorf("workers=%d: stream differs from workers=1:\n%s\nvs\n%s", workers, got, golden)
				}
			}
		})
	}
}
