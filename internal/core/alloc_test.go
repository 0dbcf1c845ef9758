package core_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// mcs6502AllocBound caps the heap allocations of one mcs6502 synthesis
// on warm pooled engines: the measured 11,319 (go1.24, linux/amd64) plus
// 20% headroom for other toolchains' map and slice growth. The same
// measurement read 30,285 with the element-keyed engine memories this
// layout replaced.
const mcs6502AllocBound = 13_600

// TestPooledSynthesisAllocBound bounds the allocations of one mcs6502
// synthesis once every phase engine comes from its pool. The collector is
// off while it measures, so the pools' sync.Pool is not emptied mid-run,
// and the test runs on one processor, as AllocsPerRun does, so no engine
// sits out of reach in another processor's pool slot: every Get recycles.
func TestPooledSynthesisAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a random share of Puts, so runs rebuild engines")
	}
	tr, err := bench.Load("mcs6502")
	if err != nil {
		t.Fatal(err)
	}
	synth := func() {
		if _, err := core.Synthesize(tr, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Changing GOMAXPROCS empties every sync.Pool, so set it before the
	// pools are filled; AllocsPerRun's own setting is then a no-op.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	synth() // fill the pools
	builds := core.EngineBuilds()
	n := testing.AllocsPerRun(5, synth)
	if b := core.EngineBuilds() - builds; b != 0 {
		t.Fatalf("%d phase engines built during the measurement, want every Get recycled", b)
	}
	if n > mcs6502AllocBound {
		t.Errorf("one pooled mcs6502 synthesis allocates %.0f times, bound %d", n, mcs6502AllocBound)
	}
	t.Logf("one pooled mcs6502 synthesis: %.0f allocs (bound %d)", n, mcs6502AllocBound)
}
