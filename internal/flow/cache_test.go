package flow_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/flow"
)

// probeInput returns a tiny valid compilation unit unique to n.
func probeInput(n int) flow.Input {
	return flow.Input{
		Name:   fmt.Sprintf("lru-probe-%d.isps", n),
		Source: fmt.Sprintf("processor LRU%d { reg A<3:0> main m { A := A + %d } }", n, n+1),
	}
}

// TestFrontCacheLRUBound drives the artifact cache past its entry cap and
// checks the LRU contract a daemon depends on: the bound holds, evictions
// are counted, and an evicted source rebuilds (a miss) while a retained
// one is served (a hit).
func TestFrontCacheLRUBound(t *testing.T) {
	flow.ResetCache()
	flow.SetCacheCap(2)
	t.Cleanup(func() {
		flow.SetCacheCap(0) // restore the default bound
		flow.ResetCache()
	})

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := flow.FrontEnd(ctx, probeInput(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := flow.FrontCacheStats()
	if st.Entries != 2 || st.Cap != 2 {
		t.Fatalf("entries=%d cap=%d, want 2/2", st.Entries, st.Cap)
	}
	if st.Misses != 3 || st.Evictions != 1 || st.Hits != 0 {
		t.Fatalf("stats %+v, want 3 misses, 1 eviction, 0 hits", st)
	}

	// Probe 0 was least recently used and must have been evicted: loading
	// it again is a miss. Probe 2 is still resident: a hit.
	if _, err := flow.FrontEnd(ctx, probeInput(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := flow.FrontEnd(ctx, probeInput(2)); err != nil {
		t.Fatal(err)
	}
	st = flow.FrontCacheStats()
	if st.Misses != 4 {
		t.Errorf("misses=%d, want 4 (evicted source rebuilt)", st.Misses)
	}
	if st.Hits != 1 {
		t.Errorf("hits=%d, want 1 (resident source served)", st.Hits)
	}
}

// TestSetCacheCapEvictsImmediately shrinks the bound below the current
// population and checks the overflow is evicted at once.
func TestSetCacheCapEvictsImmediately(t *testing.T) {
	flow.ResetCache()
	flow.SetCacheCap(8)
	t.Cleanup(func() {
		flow.SetCacheCap(0)
		flow.ResetCache()
	})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := flow.FrontEnd(ctx, probeInput(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := flow.SetCacheCap(1); got != 1 {
		t.Fatalf("SetCacheCap returned %d, want 1", got)
	}
	st := flow.FrontCacheStats()
	if st.Entries != 1 {
		t.Errorf("entries=%d after rebound, want 1", st.Entries)
	}
	if st.Evictions != 4 {
		t.Errorf("evictions=%d, want 4", st.Evictions)
	}
}

// useCacheCap empties the artifact cache and bounds it at n for one test.
func useCacheCap(t *testing.T, n int) {
	t.Helper()
	flow.ResetCache()
	flow.SetCacheCap(n)
	t.Cleanup(func() {
		flow.SetCacheCap(0)
		flow.ResetCache()
	})
}

// sourceInput returns a valid compilation unit unique to n for any n
// (probeInput's literal overflows its register past n = 14).
func sourceInput(n int) flow.Input {
	return flow.Input{
		Name:   fmt.Sprintf("slru-probe-%d.isps", n),
		Source: fmt.Sprintf("processor SLRU%d { reg A<3:0> main m { A := A + 1 } }", n),
	}
}

// loadFront runs the cached front end of one source.
func loadFront(t *testing.T, n int) {
	t.Helper()
	if _, err := flow.FrontEnd(context.Background(), sourceInput(n)); err != nil {
		t.Fatal(err)
	}
}

// TestFrontCacheOneOffFlood feeds the cache three times its bound in
// sources that are each loaded once: none is ever read again, so the
// cache keeps only the probation segment's two never-read artifacts
// instead of filling up to the bound.
func TestFrontCacheOneOffFlood(t *testing.T) {
	const capN = 8
	useCacheCap(t, capN)
	for i := 0; i < 3*capN; i++ {
		loadFront(t, i)
	}
	st := flow.FrontCacheStats()
	if st.Entries > 2 || st.Probation != st.Entries {
		t.Errorf("entries=%d probation=%d after a one-off flood, want at most 2, all in probation", st.Entries, st.Probation)
	}
	if st.Misses != 3*capN || st.Hits != 0 {
		t.Errorf("stats %+v, want %d misses and no hits", st, 3*capN)
	}
	if st.Evictions != int64(3*capN-st.Entries) {
		t.Errorf("evictions=%d, want every artifact not resident counted", st.Evictions)
	}
}

// TestFrontCacheScanResistance pins the promote-on-first-hit rule: a
// source read twice survives a burst of as many one-off sources as the
// bound, which under a plain LRU would have evicted it.
func TestFrontCacheScanResistance(t *testing.T) {
	const capN = 4
	useCacheCap(t, capN)
	const repeated = 1000
	loadFront(t, repeated)
	loadFront(t, repeated)
	for i := 0; i < capN; i++ {
		loadFront(t, i)
	}
	before := flow.FrontCacheStats()
	if before.Entries-before.Probation != 1 {
		t.Errorf("stats %+v, want exactly the repeated source promoted", before)
	}
	loadFront(t, repeated)
	after := flow.FrontCacheStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("repeated source after a one-off burst: hits %d->%d misses %d->%d, want a hit",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
}

// TestFrontCacheEvictsMainBeforeNewArtifact pins the eviction order when
// the bound is full of promoted artifacts: the main segment's LRU entry
// goes, never the artifact just built, so a source compiled twice in a
// row stays a hit.
func TestFrontCacheEvictsMainBeforeNewArtifact(t *testing.T) {
	const capN = 3
	useCacheCap(t, capN)
	for i := 0; i < capN; i++ {
		loadFront(t, i)
		loadFront(t, i) // promote
	}
	loadFront(t, 100)
	st := flow.FrontCacheStats()
	if st.Entries != capN || st.Probation != 1 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want %d entries, 1 in probation, 1 eviction", st, capN)
	}
	loadFront(t, 100)
	loadFront(t, 0) // the main segment's LRU entry: evicted
	st = flow.FrontCacheStats()
	if st.Hits != capN+1 || st.Misses != capN+2 {
		t.Errorf("stats %+v, want the new artifact a hit and the main LRU entry a miss", st)
	}
}

// TestFrontCacheConcurrentFirstCompiles compiles one new source from many
// goroutines at once: the build runs once (one miss), every other caller
// is a hit whether it found the finished artifact or waited on the build,
// and those hits promote the entry past a following one-off flood.
func TestFrontCacheConcurrentFirstCompiles(t *testing.T) {
	const capN, callers = 4, 8
	useCacheCap(t, capN)
	in := sourceInput(2000)
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := flow.Compile(context.Background(), in, flow.Options{}); err != nil {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := flow.FrontCacheStats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats %+v, want 1 miss and %d hits", st, callers-1)
	}
	for i := 0; i < 2*capN; i++ {
		loadFront(t, i)
	}
	res, err := flow.Compile(context.Background(), in, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := res.Trace.Stage(flow.StageParse); !st.Cached {
		t.Error("concurrently compiled source evicted by a one-off flood")
	}
}
