package flow

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"repro/internal/isps"
	"repro/internal/vt"
)

// The artifact cache memoizes the front half of the pipeline (parse +
// sema + trace build/validation) keyed by a content hash of the input, so
// compiling the same source repeatedly — the experiment harness loads the
// MCS6502 nine-plus times across E2–E8, and a synthesis daemon sees the
// same sources for the lifetime of the process — pays for the front end
// once.
//
// The cache is a bounded, segmented LRU: a long-running server must not
// accumulate front-end artifacts for every source it has ever seen, and
// most sources a daemon sees (a designer's first submission) are never
// read again. A new artifact enters the probation segment; its first hit
// promotes it to the main segment, which is ordered by recency. Probation
// holds at most min(cap, probationCap) never-read artifacts, so a stream
// of one-off sources keeps almost nothing live for the GC to mark, while
// any source read twice is retained as under a plain LRU. Eviction is
// counted and goes in this order:
//
//  1. when probation exceeds its bound, its oldest entry is dropped;
//  2. when the total exceeds cap, the main segment's least-recently-used
//     entry is dropped, or probation's oldest when main is empty.
//
// A burst of one-off sources therefore cannot flush the artifacts that
// repeated sources and explore sweeps share. A re-submission of an
// evicted source simply rebuilds it.
//
// The cached value trace is pristine: it is never handed to a caller
// directly, only as a vt.Clone, because the DAA's trace-refinement rules
// rewrite their input in place. The cached AST is shared (the back end
// never mutates it); callers must treat it as read-only.

// frontArtifact is one memoized front-end run.
type frontArtifact struct {
	ast    *isps.Program
	trace  *vt.Program // pristine master copy; hand out clones only
	stages []StageInfo // parse/sema/build timings of the original run
}

// frontEntry is the cache slot: the once gate makes concurrent compilations
// of the same source (RunAll fan-out, concurrent server requests) build
// the artifact exactly once, even if the entry is evicted mid-build.
// Waiters on the gate count as hits and promote the entry.
type frontEntry struct {
	key      [sha256.Size]byte
	once     sync.Once
	art      *frontArtifact
	err      error
	promoted bool // in the main segment; guarded by frontCache.mu
}

// DefaultCacheCap is the front-end artifact cache's default entry bound,
// over both segments: ample for the embedded benchmark suite plus a
// working set of repeatedly read user sources. Sources read only once
// never occupy more than probationCap of it.
const DefaultCacheCap = 256

// probationCap bounds the never-read artifacts the cache holds. Two is
// the smallest size that keeps "compile, then compile again" a hit even
// when another source is compiled in between.
const probationCap = 2

// CacheStats is a point-in-time snapshot of the front-end artifact cache.
type CacheStats struct {
	Entries   int   `json:"entries"`   // artifacts currently cached
	Probation int   `json:"probation"` // of those, never read since built (front-end cache only)
	Cap       int   `json:"cap"`       // entry bound
	Hits      int64 `json:"hits"`      // lookups served from the cache
	Misses    int64 `json:"misses"`    // lookups that had to build
	Evictions int64 `json:"evictions"` // artifacts dropped by the LRU bound
}

// frontCache is the segmented LRU state. Both lists hold *frontEntry
// values, most recent at the front; index maps content hash to list node.
var frontCache = struct {
	mu        sync.Mutex
	cap       int
	main      *list.List // promoted entries, by recency of use
	probation *list.List // never-read entries, by age
	index     map[[sha256.Size]byte]*list.Element
	hits      int64
	misses    int64
	evictions int64
}{
	cap:       DefaultCacheCap,
	main:      list.New(),
	probation: list.New(),
	index:     map[[sha256.Size]byte]*list.Element{},
}

// lookupFront returns the cache entry for key, creating (and, past the
// bounds, evicting) under the lock; the artifact build itself runs outside.
func lookupFront(key [sha256.Size]byte) *frontEntry {
	c := &frontCache
	c.mu.Lock()
	defer c.mu.Unlock()
	if node, ok := c.index[key]; ok {
		c.hits++
		e := node.Value.(*frontEntry)
		if e.promoted {
			c.main.MoveToFront(node)
		} else {
			c.probation.Remove(node)
			e.promoted = true
			c.index[key] = c.main.PushFront(e)
		}
		return e
	}
	c.misses++
	e := &frontEntry{key: key}
	c.index[key] = c.probation.PushFront(e)
	evictFront()
	return e
}

// evictFront restores both bounds in the documented order. The caller
// holds frontCache.mu.
func evictFront() {
	c := &frontCache
	drop := func(l *list.List) {
		back := l.Back()
		l.Remove(back)
		delete(c.index, back.Value.(*frontEntry).key)
		c.evictions++
	}
	for c.probation.Len() > min(c.cap, probationCap) {
		drop(c.probation)
	}
	for c.main.Len()+c.probation.Len() > c.cap {
		if c.main.Len() > 0 {
			drop(c.main)
		} else {
			drop(c.probation)
		}
	}
}

// FrontCacheStats snapshots the artifact cache's counters.
func FrontCacheStats() CacheStats {
	c := &frontCache
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.main.Len() + c.probation.Len(),
		Probation: c.probation.Len(),
		Cap:       c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// SetCacheCap rebounds the artifact cache to at most n entries (n <= 0
// restores DefaultCacheCap), evicting immediately, in the usual order, if
// the cache is over the new bound, and returns the bound now in effect.
// Daemons size this to their expected working set.
func SetCacheCap(n int) int {
	if n <= 0 {
		n = DefaultCacheCap
	}
	c := &frontCache
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
	evictFront()
	return n
}

// ResetCache drops every cached front-end artifact and zeroes the counters
// (tests and memory-sensitive batch runs). The entry cap is kept.
func ResetCache() {
	c := &frontCache
	c.mu.Lock()
	defer c.mu.Unlock()
	c.main.Init()
	c.probation.Init()
	c.index = map[[sha256.Size]byte]*list.Element{}
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// frontStages returns the analyzed AST, a private clone of the validated
// value trace, and the front-stage timing records, building or reusing the
// cached artifact.
func frontStages(in Input, useCache bool) (*isps.Program, *vt.Program, []StageInfo, error) {
	if !useCache {
		art, err := buildFront(in)
		if err != nil {
			return nil, nil, nil, err
		}
		// Uncached artifacts are private: no clone needed.
		return art.ast, art.trace, art.stages, nil
	}
	e := lookupFront(in.ContentHash())
	built := false
	e.once.Do(func() {
		built = true
		e.art, e.err = buildFront(in)
	})
	if e.err != nil {
		return nil, nil, nil, e.err
	}
	t0 := time.Now()
	clone := vt.Clone(e.art.trace)
	cloneD := time.Since(t0)
	if built {
		// This call paid for the real front end; report its timings, with
		// the clone attributed to the build stage.
		stages := append([]StageInfo(nil), e.art.stages...)
		stages[len(stages)-1].Elapsed += cloneD
		return e.art.ast, clone, stages, nil
	}
	stages := []StageInfo{
		{Stage: StageParse, Cached: true},
		{Stage: StageSema, Cached: true},
		{Stage: StageBuild, Elapsed: cloneD, Cached: true, Note: "clone of cached artifact"},
	}
	return e.art.ast, clone, stages, nil
}

// buildFront runs parse → sema → build → validate without the cache.
func buildFront(in Input) (*frontArtifact, error) {
	art := &frontArtifact{}

	t0 := time.Now()
	ast, err := isps.ParseOnly(in.Name, in.Source)
	if err != nil {
		return nil, Diagnose(StageParse, in, err)
	}
	art.stages = append(art.stages, StageInfo{
		Stage: StageParse, Elapsed: time.Since(t0),
		Note: fmt.Sprintf("%d bytes", len(in.Source)),
	})

	t0 = time.Now()
	if err := isps.Analyze(ast); err != nil {
		return nil, Diagnose(StageSema, in, err)
	}
	art.stages = append(art.stages, StageInfo{Stage: StageSema, Elapsed: time.Since(t0)})

	t0 = time.Now()
	trace, err := vt.Build(ast)
	if err != nil {
		return nil, Diagnose(StageBuild, in, err)
	}
	if err := trace.Validate(); err != nil {
		return nil, Diagnose(StageBuild, in, err)
	}
	st := trace.Stats()
	art.stages = append(art.stages, StageInfo{
		Stage: StageBuild, Elapsed: time.Since(t0),
		Note: fmt.Sprintf("%d ops, %d bodies, %d carriers", st.Ops, st.Bodies, st.Carriers),
	})

	art.ast, art.trace = ast, trace
	return art, nil
}
