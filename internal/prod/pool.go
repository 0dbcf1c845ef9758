package prod

import "sync"

// Pool recycles compiled engines for one rule set across runs. Building
// an engine — NewEngine plus AddRule over every rule — compiles the rule
// set into a Rete network; a run then grows tokens, memories, indexes and
// buffers inside it. Get hands out an engine whose network is already
// compiled, and Put returns one after dropping every reference to the
// finished run, keeping the network, the token free lists and the buffer
// capacity for the next.
//
// The idle engines sit in a sync.Pool, so the garbage collector reclaims
// them when the process stops synthesizing; a bounded free list would pin
// them (and every token they hold) for the life of the process.
//
// Rules in a pooled set must not capture per-run state (see Rule.Action):
// per-run state reaches them through Engine.Host.
type Pool struct {
	rules []*Rule
	idle  sync.Pool
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
	e := NewEngine(wm)
	for _, r := range p.rules {
		e.AddRule(r)
	}
	e.pool = p
	return e
}

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
// The compiled network, the free lists and the buffers' capacity stay.
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

	clear(e.met.rules)
	e.met = engineMetrics{rules: e.met.rules, series: e.met.series[:0]}

	e.rete.scrub()
}

// scrub empties the network's memories and every rule's token state.
func (rt *rete) scrub() {
	for _, mem := range rt.alpha.memList {
		mem.reset()
	}
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

// scrub moves the rule's stored tokens to its free list and clears every
// token and binding vector the run touched. Tokens below the free list's
// low-water mark sat idle through the run and are still clean from the
// previous scrub, so the cost follows this run's token traffic, not the
// free list's size.
func (rr *reteRule) scrub() {
	for _, n := range rr.nodes {
		rr.freeTokens(n)
		n.tokens = scrubSlice(n.tokens)
	}
	for _, t := range rr.free[rr.freeLow:] {
		*t = token{children: scrubSlice(t.children), negMatches: scrubSlice(t.negMatches)}
	}
	for _, b := range rr.bindsFree[rr.bindsLow:] {
		clear(b)
	}
	rr.freeLow, rr.bindsLow = len(rr.free), len(rr.bindsFree)
	rr.root.children = scrubSlice(rr.root.children)
	rr.cs = scrubSlice(rr.cs)
	rr.agenda = scrubSlice(rr.agenda)
	rr.stale = scrubSlice(rr.stale)
	rr.scratch = scrubSlice(rr.scratch)
	rr.stats = reteBatchStats{}
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
