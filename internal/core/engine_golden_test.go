package core_test

// Golden engine-work counts: for every embedded benchmark and every DAA
// phase, the deterministic counters of the default (Rete) engine. Timing
// varies from run to run; these do not, so a change to the matcher or to
// conflict resolution that claims to preserve behaviour must reproduce
// every line exactly. Regenerate after an intentional rule-base or
// matcher-semantics change with:
//
//	go test ./internal/core -run TestEngineCountsGolden -update-counts

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

var updateCounts = flag.Bool("update-counts", false, "rewrite testdata/engine_counts.golden")

const countsGolden = "testdata/engine_counts.golden"

// engineCounts renders one line per (design, phase).
func engineCounts(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("# design phase firings cycles alpha_evals join_tests token_asserts token_retracts conflict_peak conflict_sum\n")
	for _, name := range bench.Names() {
		tr, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Synthesize(tr, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ph := range res.Stats.Phases {
			m := ph.Engine
			fmt.Fprintf(&b, "%s %s %d %d %d %d %d %d %d %d\n", name, ph.Name,
				ph.Firings, ph.Cycles, m.AlphaEvals, m.JoinTests,
				m.TokenAsserts, m.TokenRetracts, m.ConflictPeak, m.ConflictSum)
		}
	}
	return b.String()
}

func TestEngineCountsGolden(t *testing.T) {
	got := engineCounts(t)
	if *updateCounts {
		if err := os.MkdirAll(filepath.Dir(countsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countsGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-counts)", err)
	}
	if got != string(want) {
		t.Fatalf("engine counts drifted from %s (regenerate with -update-counts only if the change is intended):\n%s",
			countsGolden, firstDiff(got, string(want)))
	}
	if n := strings.Count(got, "\n") - 1; n != len(bench.Names())*len(core.PhaseOrder) {
		t.Fatalf("golden has %d rows, want %d designs x %d phases", n, len(bench.Names()), len(core.PhaseOrder))
	}
}
