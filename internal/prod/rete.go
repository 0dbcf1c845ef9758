package prod

import "time"

// rete is the engine's full discrimination network (its matcher). The
// alpha layer classifies each WM change once across all rules; the beta
// layer stores partial-match tokens so only the join work downstream of
// an affected memory reruns. Batches are applied in two phases:
//
//  1. alpha phase: each pending Change is classified against the shared
//     memories, producing an ordered event list (assert / retract /
//     touch) with per-event sequence numbers and versioned membership.
//  2. beta phase: every rule replays the event list against its private
//     token state. Rules share nothing but the read-only memories and
//     elements, so per-rule propagation is order-independent across rules.
//
// Conflict resolution then reads the per-rule agendas (agenda.go).

type rete struct {
	alpha *alphaNet
	rules []*reteRule

	seeded   bool
	seq      int // event sequence within the current batch
	events   []alphaEvent
	bumps    []bump      // Modify changes to member elements (agenda re-rank)
	dirty    []*alphaMem // memories needing compaction after the batch
	patterns int         // compiled patterns (sharing statistic)
}

type alphaEventKind uint8

const (
	evAssert alphaEventKind = iota
	evRetract
	evTouch // membership kept, but join/projection attributes changed
)

// alphaEvent is one classified WM change against one memory.
type alphaEvent struct {
	seq   int
	kind  alphaEventKind
	mem   *alphaMem
	el    *Element
	attrs []attrID // evTouch: the changed attributes
}

// reteRule is one rule's beta chain, its token arena and its
// batch-local counters.
type reteRule struct {
	idx   int
	r     *Rule
	cr    *compiledRule
	net   *alphaNet // element slots -> elements, for matches
	nodes []*betaNode
	// byMem lists the rule's nodes per alpha-memory id, descending level
	// order. Dense by mem id — the per-(rule, event) dispatch is a slice
	// index, not a map probe. Memories created by later rules have ids past
	// the slice end, which correctly reads as "not watched".
	byMem [][]*betaNode

	// The token arena (beta.go): toks[0] is the root, free lists deleted
	// tokens for reuse. A reset truncates the arena to the root.
	toks []token
	free []int32
	// binds holds every binding vector, stride len(cr.slotNames) apart;
	// the root's all-nil vector sits at offset 0. bindsFree recycles the
	// vectors deleted tokens owned; bindsHi bounds the slots written
	// since the last scrub.
	binds     []any
	stride    int
	bindsFree []int32
	bindsHi   int
	// blk holds the negative tokens' blocker lists (blk[0] unused);
	// blkFree chains the free records.
	blk     []blocker
	blkFree int32
	// elTok is indexed by element slot: the head of the list of the
	// rule's positive tokens that matched the element (0: none). It only
	// grows; every nonzero slot heads a live token, so emptying the
	// tokens zeroes it.
	elTok []int32

	// ms registers the rule's match objects for reuse (ms[0] unused):
	// msFree lists the released ones, ms[msUsed:] are clean and unused
	// since the last reset, and ms[1:msHi] bounds the ones written since
	// the last scrub.
	ms           []*Match
	msFree       []int32
	msUsed, msHi int
	cs           []*Match // every live instantiation, fired or not
	agenda       []*Match // the unfired ones, in rank order (agenda.go)
	fired        map[refraction]bool
	stale        []*Match // rerank collection buffer
	scratch      []int32  // rightRetract collection buffer
	stats        reteBatchStats
}

// nodesFor returns the rule's nodes on mem, innermost (deepest) first.
func (rr *reteRule) nodesFor(mem *alphaMem) []*betaNode {
	if mem.id >= len(rr.byMem) {
		return nil
	}
	return rr.byMem[mem.id]
}

// reset empties the rule's beta state — tokens, blockers, matches, the
// conflict set and the agenda — keeping every buffer's capacity. The
// element slots the stored tokens occupied are zeroed as they go and the
// token indexes emptied, so both read empty whatever WM the rule sees
// next.
func (rr *reteRule) reset() {
	for _, n := range rr.nodes {
		if !n.neg {
			for _, t := range n.tokens {
				rr.elTok[rr.toks[t].el] = 0
			}
		}
		n.tokens = n.tokens[:0]
		clear(n.succIdx)
		clear(n.negIdx)
		n.succOn, n.negOn = false, false
	}
	rr.toks = append(rr.toks[:0], token{level: -1, el: -1})
	rr.free = rr.free[:0]
	rr.binds = rr.binds[:rr.stride]
	rr.bindsFree = rr.bindsFree[:0]
	rr.blk = rr.blk[:1]
	rr.blkFree = 0
	rr.msFree = rr.msFree[:0]
	rr.msUsed = 1
	rr.cs = rr.cs[:0]
	clear(rr.agenda)
	rr.agenda = rr.agenda[:0]
	rr.stats = reteBatchStats{}
}

// reteBatchStats accumulates one rule's work during a batch; folded into
// the engine metrics serially after the beta phase.
type reteBatchStats struct {
	joinTests            int
	asserts, retracts    int
	matchAdds, matchDels int
	elapsed              time.Duration
	touched              bool
}

// work weighs the batch's share of a rule for apportioning serial match
// time: its join tests, token asserts and retracts, plus one for the
// relevance scan every touched rule pays.
func (st *reteBatchStats) work() int64 {
	return int64(st.joinTests + st.asserts + st.retracts + 1)
}

func newRete() *rete {
	return &rete{alpha: newAlphaNet()}
}

// addRule compiles a rule and splices its beta chain into the network.
// If the engine is already seeded, the new rule's memories are populated
// from live WM and its chain activated immediately.
func (rt *rete) addRule(r *Rule, e *Engine) {
	cr := compileRule(r)
	rr := &reteRule{idx: r.index, r: r, cr: cr, net: rt.alpha, fired: e.fired, stride: len(cr.slotNames)}
	rr.binds = make([]any, rr.stride)
	rr.blk = make([]blocker, 1)
	rr.ms = []*Match{nil}
	rr.msHi = 1
	rr.reset()
	var prev *betaNode
	for i, cp := range cr.pats {
		mem := rt.alpha.memFor(cp.class, cp.alphas, e.WM, rt.seeded)
		mem.patterns++
		rt.patterns++
		n := &betaNode{
			level: int32(i),
			mem:   mem,
			neg:   cp.negated,
			joins: cp.joins,
			projs: cp.projs,
			prev:  prev,
		}
		for _, a := range cp.attrs {
			n.attrs.add(a)
			mem.succAttrs.add(a)
		}
		if cp.hashSlot >= 0 {
			n.hashed = true
			n.hashSlot = cp.hashSlot
			n.hashAttr = cp.hashAttr
			n.memIdx = mem.ensureIndex(cp.hashAttr)
			// The token-side indexes (the previous node's succIdx, a
			// negative node's negIdx) are built lazily on first probe —
			// see beta.go.
		}
		if prev != nil {
			prev.next = n
		}
		rr.nodes = append(rr.nodes, n)
		prev = n
	}
	maxID := 0
	for _, n := range rr.nodes {
		if n.mem.id > maxID {
			maxID = n.mem.id
		}
	}
	rr.byMem = make([][]*betaNode, maxID+1)
	for i := len(rr.nodes) - 1; i >= 0; i-- {
		n := rr.nodes[i]
		rr.byMem[n.mem.id] = append(rr.byMem[n.mem.id], n)
	}
	rt.rules = append(rt.rules, rr)
	if rt.seeded {
		t0 := time.Now()
		rr.leftActivate(rr.nodes[0], 0, 0)
		rr.stats.elapsed = time.Since(t0)
		rt.foldRule(e, rr, true)
	}
}

// resync rebuilds the network state from live working memory: initial
// seeding, and re-entry after another matcher mode drove the engine.
func (rt *rete) resync(e *Engine) {
	for _, mem := range rt.alpha.memList {
		mem.reset()
	}
	rt.alpha.batchEvals = 0
	rt.alpha.seed(e.WM)
	rt.seeded = true
	evals := rt.alpha.batchEvals
	rt.alpha.batchEvals = 0
	e.matchCalls += evals
	e.met.alphaEvals += evals
	for _, rr := range rt.rules {
		rr.reset()
		t0 := time.Now()
		rr.leftActivate(rr.nodes[0], 0, 0)
		rr.stats.elapsed = time.Since(t0)
		rt.foldRule(e, rr, true)
	}
}

// apply propagates one batch of WM changes through the network.
func (rt *rete) apply(e *Engine, changes []Change) {
	// Phase 1: classify each change against the shared memories.
	rt.seq = 0
	rt.events = rt.events[:0]
	rt.bumps = rt.bumps[:0]
	rt.dirty = rt.dirty[:0]
	for _, ch := range changes {
		el := ch.El
		mems := rt.alpha.byClass[el.Class]
		if len(mems) == 0 {
			continue
		}
		rt.alpha.gen++
		switch ch.Kind {
		case ChangeMake:
			for _, mem := range mems {
				// AddRule-time population may already hold the element.
				if !mem.has(el) && mem.eval(el, rt.alpha) {
					rt.emit(evAssert, mem, el, nil)
				}
			}
		case ChangeRemove:
			for _, mem := range mems {
				if mem.has(el) {
					rt.emit(evRetract, mem, el, nil)
				}
			}
		case ChangeModify:
			for _, mem := range mems {
				// Keep value indexes filed under final attribute values
				// before any membership decision: hashed probes at every
				// event of this batch read final values, like all joins.
				mem.reindexEl(el)
				wasIn := mem.has(el)
				if wasIn {
					rt.bumps = append(rt.bumps, bump{mem, el})
				}
				if !mem.testAttrs.hasAny(ch.ids) {
					// Membership can't flip; joins may still care.
					if wasIn && mem.succAttrs.hasAny(ch.ids) {
						rt.emit(evTouch, mem, el, ch.ids)
					}
					continue
				}
				nowIn := mem.eval(el, rt.alpha)
				switch {
				case wasIn && !nowIn:
					rt.emit(evRetract, mem, el, nil)
				case !wasIn && nowIn:
					rt.emit(evAssert, mem, el, nil)
				case wasIn && nowIn:
					rt.emit(evTouch, mem, el, ch.ids)
				}
			}
		}
	}
	evals := rt.alpha.batchEvals
	rt.alpha.batchEvals = 0
	e.matchCalls += evals
	e.met.alphaEvals += evals

	// Modifies bumped time tags: restore agenda order before any
	// propagation schedules or unschedules against it.
	if len(rt.bumps) > 0 {
		for _, rr := range rt.rules {
			rr.rerank(rt.bumps)
		}
	}

	// Phase 2: replay the event list per rule. The clock is read twice per
	// batch and the span apportioned over the touched rules by their work
	// (apportion): per-rule figures are estimates, the total is exact.
	// Clock reads cost enough to show in profiles, and a batch touches a
	// dozen rules or more.
	if len(rt.events) > 0 {
		t0 := time.Now()
		var work int64
		for _, rr := range rt.rules {
			if rr.processEvents(rt.events) {
				work += rr.stats.work()
			}
		}
		rt.apportion(time.Since(t0), work)
	}

	// Fold counters and compact memories.
	for _, rr := range rt.rules {
		if rr.stats.touched {
			rt.foldRule(e, rr, false)
		}
	}
	for _, mem := range rt.dirty {
		mem.compact()
	}
}

// apportion splits a batch's elapsed time over the touched rules
// in proportion to their work (total is the sum of their weights). Each
// rule is charged the difference of the cumulative shares, so the charges
// sum to elapsed exactly despite integer rounding.
func (rt *rete) apportion(elapsed time.Duration, total int64) {
	var cum, charged int64
	for _, rr := range rt.rules {
		if !rr.stats.touched {
			continue
		}
		cum += rr.stats.work()
		upTo := int64(elapsed) * cum / total
		rr.stats.elapsed += time.Duration(upTo - charged)
		charged = upTo
	}
}

// emit records one event, applying the membership change to the memory.
func (rt *rete) emit(kind alphaEventKind, mem *alphaMem, el *Element, attrs []attrID) {
	rt.seq++
	switch kind {
	case evAssert:
		mem.add(el, rt.seq)
	case evRetract:
		mem.del(el, rt.seq)
	}
	if mem.dirty && (len(rt.dirty) == 0 || rt.dirty[len(rt.dirty)-1] != mem) {
		rt.dirty = append(rt.dirty, mem)
	}
	rt.events = append(rt.events, alphaEvent{seq: rt.seq, kind: kind, mem: mem, el: el, attrs: attrs})
}

// processEvents replays a batch's event list against one rule's chain and
// reports whether the rule was touched. Timing is the caller's job: clock
// reads are expensive enough to show in profiles, so rete.apply times the
// whole batch and apportions it instead of bracketing every call here.
func (rr *reteRule) processEvents(evs []alphaEvent) bool {
	relevant := false
	for i := range evs {
		if len(rr.nodesFor(evs[i].mem)) > 0 {
			relevant = true
			break
		}
	}
	if !relevant {
		return false
	}
	rr.stats.touched = true
	for i := range evs {
		ev := &evs[i]
		for _, n := range rr.nodesFor(ev.mem) { // descending level
			switch ev.kind {
			case evAssert:
				rr.rightAssert(n, ev.el, ev.seq)
			case evRetract:
				rr.rightRetract(n, ev.el, ev.seq)
			case evTouch:
				if n.attrs.hasAny(ev.attrs) { // a join or projection attribute changed
					rr.rightRetract(n, ev.el, ev.seq)
					rr.rightAssert(n, ev.el, ev.seq)
				}
			}
		}
	}
	return true
}

// foldRule moves a rule's batch counters into the engine metrics.
// rebuild marks a from-scratch activation (seeding or late AddRule)
// rather than an incremental delta.
func (rt *rete) foldRule(e *Engine, rr *reteRule, rebuild bool) {
	st := &rr.stats
	rm := &e.met.rules[rr.idx]
	if rebuild {
		rm.rebuilds++
		e.met.rebuilds++
	} else {
		rm.deltas++
		e.met.deltas++
	}
	rm.matchCalls += st.joinTests
	rm.matchTime += st.elapsed
	rm.added += st.matchAdds
	rm.invalidated += st.matchDels
	e.matchCalls += st.joinTests
	e.met.added += st.matchAdds
	e.met.invalidated += st.matchDels
	e.met.joinTests += st.joinTests
	e.met.tokenAsserts += st.asserts
	e.met.tokenRetracts += st.retracts
	*st = reteBatchStats{}
}

// tokensLive counts stored tokens across the network (metrics snapshot).
func (rt *rete) tokensLive() int {
	n := 0
	for _, rr := range rt.rules {
		for _, nd := range rr.nodes {
			n += len(nd.tokens)
		}
	}
	return n
}

// nodeCounts returns the join and negative node totals.
func (rt *rete) nodeCounts() (joins, negs int) {
	for _, rr := range rt.rules {
		for _, nd := range rr.nodes {
			if nd.neg {
				negs++
			} else {
				joins++
			}
		}
	}
	return
}
