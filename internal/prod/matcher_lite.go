package prod

import "time"

// The Rete-lite matcher (PR 1), retained behind Engine.Lite and as the
// middle leg of the three-way CrossCheck lockstep. It keeps a persistent
// conflict set per rule and re-enumerates only rules subscribed to the
// classes/attributes a WM change touched — "match the change, not the
// memory" — but every rematch is still interpreted join enumeration over
// Pattern.tests. The full Rete network (rete.go) replaces it as the
// default by storing the partial matches themselves.
//
// enumerate and candidates at the bottom of this file are also the
// exhaustive matcher's core: Exhaustive mode is a full enumeration of
// every rule on every cycle.

// liteState is the Rete-lite matcher's persistent state. cs is the
// conflict set, one slice of instantiations per rule; subClass and
// subAttr form the subscription index built at AddRule time. Per batch
// each subscribed rule either gets a delta update seeded on the touched
// elements (needFull false, touched non-empty) or a full re-enumeration
// (needFull true — the initial match, a change to a class the rule
// negates, or staleness after another matcher mode drove the engine).
type liteState struct {
	cs       [][]*Match
	subClass map[string][]int
	subAttr  map[classAttr][]int
	needFull []bool
	touched  [][]*Element
}

type classAttr struct {
	class, attr string
}

func (ls *liteState) addRule(r *Rule) {
	ls.cs = append(ls.cs, nil)
	ls.needFull = append(ls.needFull, true) // never matched yet
	ls.touched = append(ls.touched, nil)
	for _, p := range r.Patterns {
		ls.subscribeClass(p.Class, r.index)
		for _, t := range p.tests {
			ls.subscribeAttr(classAttr{p.Class, t.attr}, r.index)
		}
	}
}

func (ls *liteState) subscribeClass(class string, idx int) {
	for _, i := range ls.subClass[class] {
		if i == idx {
			return
		}
	}
	ls.subClass[class] = append(ls.subClass[class], idx)
}

func (ls *liteState) subscribeAttr(k classAttr, idx int) {
	for _, i := range ls.subAttr[k] {
		if i == idx {
			return
		}
	}
	ls.subAttr[k] = append(ls.subAttr[k], idx)
}

// markAllStale flags every rule for full re-enumeration; called each
// cycle the lite matcher sits inactive so its state is rebuilt correctly
// if the engine's mode flips mid-run.
func (ls *liteState) markAllStale() {
	for i := range ls.needFull {
		ls.needFull[i] = true
	}
}

// liteApply routes the batched WM notifications through the subscription
// index and brings exactly the affected rules up to date.
func (e *Engine) liteApply(changes []Change) {
	ls := &e.lite
	for _, ch := range changes {
		class := ch.El.Class
		switch ch.Kind {
		case ChangeMake, ChangeRemove:
			for _, i := range ls.subClass[class] {
				e.markTouched(i, ch.El)
			}
		case ChangeModify:
			for _, a := range ch.Attrs {
				for _, i := range ls.subAttr[classAttr{class, a}] {
					e.markTouched(i, ch.El)
				}
			}
		}
	}
	for i := range e.rules {
		switch {
		case ls.needFull[i]:
			e.rebuild(e.rules[i])
		case len(ls.touched[i]) > 0:
			e.delta(e.rules[i], ls.touched[i])
		}
		ls.needFull[i] = false
		ls.touched[i] = ls.touched[i][:0]
	}
}

// markTouched records that el changed in a way rule i subscribed to. A
// change to a class the rule negates forces a full re-enumeration: it can
// enable or disable instantiations that share no element with el.
func (e *Engine) markTouched(i int, el *Element) {
	ls := &e.lite
	if ls.needFull[i] {
		return
	}
	if e.rules[i].negClasses[el.Class] {
		ls.needFull[i] = true
		return
	}
	for _, x := range ls.touched[i] {
		if x == el {
			return
		}
	}
	ls.touched[i] = append(ls.touched[i], el)
}

// rebuild re-enumerates one rule's instantiations from scratch and diffs
// them against the previous set for the added/invalidated metrics.
func (e *Engine) rebuild(r *Rule) {
	t0 := time.Now()
	old := e.lite.cs[r.index]
	var fresh []*Match
	e.enumerate(r, -1, nil, nil, true, func(m *Match) { fresh = append(fresh, m) })
	e.lite.cs[r.index] = fresh

	rm := &e.met.rules[r.index]
	rm.rebuilds++
	rm.matchTime += time.Since(t0)
	added, invalidated := diffInstantiations(e, old, fresh)
	rm.added += added
	rm.invalidated += invalidated
	e.met.added += added
	e.met.invalidated += invalidated
	e.met.rebuilds++
}

// delta incrementally updates one rule's instantiations after a batch of
// element changes: instantiations containing a touched element are
// dropped, then the joins *through* each touched element are re-enumerated
// with that element pinned in place. Each new instantiation is attributed
// to its first touched position (earlier positions exclude touched
// elements), so a batch never adds an instantiation twice.
func (e *Engine) delta(r *Rule, touched []*Element) {
	t0 := time.Now()
	old := e.lite.cs[r.index]
	kept := old[:0]
	dropped := 0
	for _, m := range old {
		if matchTouches(m, touched) {
			dropped++
			continue
		}
		kept = append(kept, m)
	}
	added := 0
	for _, x := range touched {
		if !x.Live() {
			continue
		}
		for pi, p := range r.Patterns {
			if p.Negated || p.Class != x.Class {
				continue
			}
			e.enumerate(r, pi, x, touched, true, func(m *Match) {
				kept = append(kept, m)
				added++
			})
		}
	}
	e.lite.cs[r.index] = kept

	rm := &e.met.rules[r.index]
	rm.deltas++
	rm.matchTime += time.Since(t0)
	rm.added += added
	rm.invalidated += dropped
	e.met.added += added
	e.met.invalidated += dropped
	e.met.deltas++
}

func matchTouches(m *Match, touched []*Element) bool {
	for _, el := range m.Elements {
		for _, x := range touched {
			if el == x {
				return true
			}
		}
	}
	return false
}

// diffInstantiations counts, by refraction key (rule + element identity +
// recency), how many instantiations appear only in fresh (added) and only
// in old (invalidated).
func diffInstantiations(e *Engine, old, fresh []*Match) (added, invalidated int) {
	switch {
	case len(old) == 0:
		return len(fresh), 0
	case len(fresh) == 0:
		return 0, len(old)
	}
	prev := make(map[refraction]int, len(old))
	for _, m := range old {
		prev[refractionKey(m)]++
	}
	for _, m := range fresh {
		k := refractionKey(m)
		if prev[k] > 0 {
			prev[k]--
		} else {
			added++
		}
	}
	//daalint:allow detmap order-insensitive sum
	for _, n := range prev {
		invalidated += n
	}
	return added, invalidated
}

// enumerate yields instantiations of r's patterns under the current
// working memory, in deterministic candidate order. Where is *not* applied
// here: it is a per-cycle test, evaluated at selection time. Candidate
// elements per pattern come from the narrowest applicable index: an Eq
// test, or a Bind test whose variable is already bound, hashes directly to
// the matching elements.
//
// With pinPat < 0 every instantiation is yielded (a full enumeration).
// Otherwise pattern pinPat is pinned to the single element pin, and
// positive patterns *before* pinPat skip every element in touched: the
// delta update calls this once per (touched element, matching pattern)
// pair, and the exclusion attributes each new instantiation to its first
// touched position so none is yielded twice. Negated patterns always test
// the full working memory.
func (e *Engine) enumerate(r *Rule, pinPat int, pin *Element, touched []*Element, count bool, yield func(*Match)) {
	var env bindings
	els := make([]*Element, 0, len(r.Patterns))
	pinned := [1]*Element{pin}
	tested := 0
	var rec func(pi int)
	rec = func(pi int) {
		if pi == len(r.Patterns) {
			yield(&Match{Rule: r, Elements: append([]*Element(nil), els...), binds: env.snapshot()})
			return
		}
		p := r.Patterns[pi]
		var candidates []*Element
		if pi == pinPat {
			candidates = pinned[:]
		} else {
			candidates = e.candidates(p, &env)
		}
		if p.Negated {
			for _, el := range candidates {
				tested++
				if mark, ok := p.match(el, &env); ok {
					env.undo(mark)
					return // negation fails
				}
			}
			rec(pi + 1)
			return
		}
		excludeTouched := pinPat >= 0 && pi < pinPat
		for _, el := range candidates {
			if excludeTouched && containsElement(touched, el) {
				continue
			}
			tested++
			if mark, ok := p.match(el, &env); ok {
				els = append(els, el)
				rec(pi + 1)
				els = els[:len(els)-1]
				env.undo(mark)
			}
		}
	}
	rec(0)
	if count {
		e.matchCalls += tested
		e.met.rules[r.index].matchCalls += tested
	}
}

func containsElement(set []*Element, el *Element) bool {
	for _, x := range set {
		if x == el {
			return true
		}
	}
	return false
}

// candidates returns the narrowest element set the working-memory indexes
// offer for a pattern under the current bindings.
func (e *Engine) candidates(p Pattern, b *bindings) []*Element {
	best := e.WM.byClass[p.Class]
	for _, t := range p.tests {
		if len(best) <= 2 {
			break // already narrow; further hashing costs more than it saves
		}
		var key any
		switch t.kind {
		case testEq:
			key = t.val
		case testBind:
			v, bound := b.get(t.vari)
			if !bound {
				continue
			}
			key = v
		default:
			continue
		}
		if set := e.WM.lookup(p.Class, t.attr, key); len(set) < len(best) {
			best = set
		}
	}
	return best
}
