package prod

import (
	"sync"
	"sync/atomic"
)

// Pool recycles compiled engines for one rule set across runs. Building
// an engine — NewEngine plus AddRule over every rule — compiles the rule
// set into a Rete network; a run then grows tokens, memories, indexes and
// buffers inside it. Get hands out an engine whose network is already
// compiled, and Put returns one after dropping every reference to the
// finished run, keeping the network and the capacity of its arenas, slot
// tables and buffers for the next.
//
// The idle engines sit in a sync.Pool, so the garbage collector reclaims
// them when the process stops synthesizing; a bounded free list would pin
// them (and every token they hold) for the life of the process.
//
// Rules in a pooled set must not capture per-run state (see Rule.Action):
// per-run state reaches them through Engine.Host.
type Pool struct {
	rules  []*Rule
	idle   sync.Pool
	builds atomic.Int64 // engines built: Gets that found no idle engine
}

// NewPool returns a pool of engines over rules. Engines are built lazily,
// on the first Get that finds the pool empty.
func NewPool(rules []*Rule) *Pool {
	return &Pool{rules: rules}
}

// Rules returns the pool's rule set, in registration order.
func (p *Pool) Rules() []*Rule { return p.rules }

// Get returns an engine over wm with the pool's rules registered and
// every exported field at its NewEngine default: a recycled engine if
// one is idle, otherwise one built by NewEngine and AddRule.
func (p *Pool) Get(wm *WM) *Engine {
	if e, ok := p.idle.Get().(*Engine); ok {
		e.attach(wm)
		return e
	}
	p.builds.Add(1)
	e := NewEngine(wm)
	for _, r := range p.rules {
		e.AddRule(r)
	}
	e.pool = p
	return e
}

// Builds reports how many engines the pool has built: the Gets that found
// no idle engine. The garbage collector empties a sync.Pool, and an
// engine Put on one processor may be out of reach of a Get on another,
// so a steady stream of runs still builds now and then; Builds makes
// that rate visible.
func (p *Pool) Builds() int64 { return p.builds.Load() }

// Put scrubs e and makes it available to a later Get. Read everything
// needed from the engine (metrics, counts) before calling Put. e must have
// come from this pool's Get, and its last Run must have returned: an
// engine abandoned by a panic is dropped, not Put. The run's WM must not
// change after Put: it still delivers its changes to the engine, which
// may by then be serving another run.
func (p *Pool) Put(e *Engine) {
	if e.pool != p {
		panic("prod: Put of an engine the pool did not build")
	}
	e.scrub()
	p.idle.Put(e)
}

// scrub returns the engine to its just-compiled state: every exported
// field at its NewEngine default, and no reference left to the finished
// run — its working memory, host, tokens, matches, journal or elements.
// The compiled network and the capacity of its arenas, slot tables and
// buffers stay.
func (e *Engine) scrub() {
	e.WM = nil
	e.MaxFirings = defaultMaxFirings
	e.Interrupt = nil
	e.TraceWriter = nil
	e.Exhaustive = false
	e.CrossCheck = false
	e.Apply = nil
	e.Host = nil

	e.halted = false
	clear(e.fired)
	e.firings, e.cycles, e.matchCalls = 0, 0, 0
	e.pending = scrubFunc(e.pending, func(c Change) bool { return c.El != nil })
	e.seeded = false
	e.reteSynced = false
	e.jr, e.jrEnc, e.cur = nil, nil, nil
	e.tx = Tx{}

	clear(e.met.rules)
	e.met = engineMetrics{rules: e.met.rules, series: e.met.series[:0]}

	e.rete.scrub()
}

// scrub empties the network's memories and every rule's token state, and
// drops the element slot table.
func (rt *rete) scrub() {
	for _, mem := range rt.alpha.memList {
		mem.reset()
	}
	rt.alpha.scrubEls()
	rt.alpha.batchEvals = 0
	rt.seeded = false
	rt.seq = 0
	rt.events = scrubFunc(rt.events, func(ev alphaEvent) bool { return ev.el != nil })
	rt.bumps = scrubSlice(rt.bumps)
	rt.dirty = scrubSlice(rt.dirty)
	for _, rr := range rt.rules {
		rr.scrub()
	}
}

// scrub resets the rule's beta state and clears every binding vector and
// match object the run wrote. The token and blocker arenas hold only
// indexes, so truncating them (reset) leaves nothing to clear; the
// binding slots and match objects past the high-water marks are still
// clean from the previous scrub, so the cost follows this run's traffic,
// not the arenas' capacity.
func (rr *reteRule) scrub() {
	rr.reset()
	clear(rr.binds[:rr.bindsHi])
	rr.bindsHi = 0
	for _, m := range rr.ms[1:rr.msHi] {
		clear(m.Elements)
		m.binds = bindings{}
		m.tok, m.csIdx, m.onAgenda = 0, 0, false
	}
	rr.msHi = 1
	rr.cs = scrubSlice(rr.cs)
	rr.agenda = scrubSlice(rr.agenda)
	rr.stale = scrubSlice(rr.stale)
}

// scrubSlice zeroes s, including the stale slots past its length, and
// returns it empty with its capacity. See scrubFunc.
func scrubSlice[T comparable](s []T) []T {
	var zero T
	return scrubFunc(s, func(x T) bool { return x != zero })
}

// scrubFunc zeroes s and the stale slots past its length that used
// reports as holding a value, and returns s empty. The engine's buffers
// grow by append and shrink by truncation or swap-remove, so the slots a
// run wrote form a prefix of the backing array, every one holding a value,
// and the previous scrub left everything beyond it zero: the sweep past
// len stops at the first empty slot, so it costs what this run used, not
// the capacity earlier runs grew.
func scrubFunc[T any](s []T, used func(T) bool) []T {
	clear(s)
	tail := s[len(s):cap(s)]
	var zero T
	for i := range tail {
		if !used(tail[i]) {
			break
		}
		tail[i] = zero
	}
	return s[:0]
}
