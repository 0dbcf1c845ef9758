package prod

// The Rete matcher's agenda: per rule, the instantiations that are still
// eligible to fire, kept in conflict-resolution order. Selection then
// reads the top of each rule's agenda instead of rescanning every
// conflict-set entry on every cycle.
//
// The agenda is a sorted slice, ascending — the best instantiation sits
// at the end, where the common cases (a new instantiation over the newest
// element; firing the top) append and pop. Order is computed from the
// elements' current time tags; it stays valid because a time tag only
// changes through a WM Modify, and rete.apply re-ranks every
// instantiation holding a modified element before the batch's beta
// propagation runs (rerank).
//
// Refraction is checked once, when an instantiation is scheduled: one
// whose key is already in the engine's fired set never enters the agenda,
// and firing removes the selected entry. The fired set itself stays,
// because negation can retract an instantiation and later re-derive it
// with the same elements and time tags. A Modify that only bumps an
// element's recency changes the key, which is how rerank re-enables a
// fired instantiation, as in OPS5.
//
// Agendas are per rule, like the rest of the beta state, so the parallel
// match mode still partitions all mutable state by rule.

// outranks reports whether a beats b under conflict resolution.
func outranks(a, b *Match) bool {
	var ka, kb recencyRank
	ka.init(a)
	kb.init(b)
	return betterRank(a, &ka, b, &kb)
}

// schedule inserts m into the agenda unless refraction rules it out.
func (rr *reteRule) schedule(m *Match) {
	if rr.fired[refractionKey(m)] {
		return
	}
	m.onAgenda = true
	ag := rr.agenda
	if n := len(ag); n == 0 || outranks(m, ag[n-1]) {
		rr.agenda = append(ag, m)
		return
	}
	// First position whose entry outranks m.
	lo, hi := 0, len(ag)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if outranks(ag[mid], m) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	ag = append(ag, nil)
	copy(ag[lo+1:], ag[lo:])
	ag[lo] = m
	rr.agenda = ag
}

// unschedule removes m from the agenda. m's rank must be current, which
// rerank guarantees for every entry (see the file comment).
func (rr *reteRule) unschedule(m *Match) {
	ag := rr.agenda
	// First position whose entry does not rank below m: m itself. Firing
	// usually takes the top, so try the end first.
	lo, hi := len(ag)-1, len(ag)-1
	if ag[lo] != m {
		lo = 0
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if outranks(m, ag[mid]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if ag[lo] != m {
		panic("prod: agenda out of order: " + describeMatch(m))
	}
	rr.removeAt(lo)
}

// removeAt deletes the agenda entry at i.
func (rr *reteRule) removeAt(i int) {
	ag := rr.agenda
	last := len(ag) - 1
	ag[i].onAgenda = false
	copy(ag[i:], ag[i+1:])
	ag[last] = nil
	rr.agenda = ag[:last]
}

// bump records that a Modify in the current batch bumped the time tag of
// el, a member of mem when the change arrived.
type bump struct {
	mem *alphaMem
	el  *Element
}

// rerank re-files every agenda entry whose rank the batch's Modify
// changes invalidated: instantiations holding a bumped element move to
// their new place, and fired ones whose refraction key changed come back.
// It runs before the beta phase, so the agenda is sorted whenever
// propagation inserts or removes entries.
func (rr *reteRule) rerank(bumps []bump) {
	rr.stale = rr.stale[:0]
	for _, b := range bumps {
		for _, n := range rr.nodesFor(b.mem) {
			if n.neg {
				continue
			}
			for _, t := range n.elIndex()[b.el] {
				rr.stale = collectMatches(rr.stale, t)
			}
		}
	}
	if len(rr.stale) == 0 {
		return
	}
	// Take every stale entry out before putting any back: insertion's
	// binary search needs the rest of the agenda in order.
	for _, m := range rr.stale {
		if m.onAgenda {
			rr.removeStale(m)
		}
	}
	for _, m := range rr.stale {
		if !m.onAgenda {
			rr.schedule(m)
		}
	}
}

// removeStale removes m by identity: its rank no longer matches its place.
func (rr *reteRule) removeStale(m *Match) {
	for i, x := range rr.agenda {
		if x == m {
			rr.removeAt(i)
			return
		}
	}
}

// collectMatches appends the conflict-set entries derived from t.
func collectMatches(out []*Match, t *token) []*Match {
	if t.match != nil {
		out = append(out, t.match)
	}
	for _, c := range t.children {
		out = collectMatches(out, c)
	}
	return out
}

// selectRete picks the best eligible instantiation from the rule agendas.
// It walks the agendas merged in conflict-resolution order and evaluates
// Where lazily: the first instantiation that passes fires, and those that
// fail stay scheduled. The walk reuses one cursor slice, so it does not
// allocate.
func (e *Engine) selectRete(observe bool) *Match {
	rules := e.rete.rules
	if observe {
		size := 0
		for _, rr := range rules {
			size += len(rr.cs)
		}
		e.met.observeConflictSize(size)
	}
	cur := e.cursors[:0]
	for _, rr := range rules {
		cur = append(cur, len(rr.agenda)-1)
	}
	e.cursors = cur
	for {
		var best *Match
		var bestRank recencyRank
		bi := -1
		for i, rr := range rules {
			if cur[i] < 0 {
				continue
			}
			m := rr.agenda[cur[i]]
			var rk recencyRank
			rk.init(m)
			if best == nil || betterRank(m, &rk, best, &bestRank) {
				best, bestRank, bi = m, rk, i
			}
		}
		if best == nil {
			return nil
		}
		if w := best.Rule.Where; w == nil || w(best) {
			return best
		}
		cur[bi]--
	}
}
