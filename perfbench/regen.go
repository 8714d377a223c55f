package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"bgpsim/internal/churn"
	"bgpsim/internal/core"
)

// regenExpected recomputes every committed digest table from the code
// in the checkout: Fig 3 at paper and tiny scale for seeds 1..16, and
// the churn streams of every slot at both scales. Churn streams come
// from local churn.Run, which the service reproduces byte for byte.
// Run it only when a change is meant to alter these outputs.
func regenExpected(root string, log io.Writer) error {
	e, err := core.Lookup("3")
	if err != nil {
		return err
	}
	for _, tiny := range []bool{false, true} {
		var b strings.Builder
		for slot := 0; slot < fig3Slots; slot++ {
			fig, err := e.Run(fig3Options(tiny, slot))
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%d %s\n", slot, digestOf(fig.Render()))
		}
		if err := writeTable(root, fig3DigestName(tiny), b.String(), log); err != nil {
			return err
		}

		b.Reset()
		for slot := 0; slot < churnSlots; slot++ {
			rr, err := churn.Run(context.Background(), churnScenario(tiny, slot), churnTrials, runtime.NumCPU(), nil)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%d %s\n", slot, digestOf(rr.Render()))
		}
		if err := writeTable(root, churnDigestName(tiny), b.String(), log); err != nil {
			return err
		}
	}
	return nil
}

func writeTable(root, name, content string, log io.Writer) error {
	path := expectedPath(root, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(log, "wrote", path)
	return nil
}
