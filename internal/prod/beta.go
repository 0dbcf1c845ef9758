package prod

// The beta network: one left-linear chain of join nodes per rule, one
// node per pattern, each fed by a (shared) alpha memory. Nodes store
// tokens — partial matches covering patterns 0..level — so a WM change
// reprocesses only the join work downstream of the memories it touched
// instead of re-enumerating whole rules.
//
// Negated patterns become negative nodes: their tokens carry the same
// bindings as their left parent plus the identity list of elements that
// currently block them (the counted negative-join-results of Doorenbos's
// thesis, with identities kept so retraction needs no re-testing against
// post-hoc attribute values). A blocked token keeps its place in the
// chain; when its last blocker disappears it resumes propagation.
//
// Beta state is strictly per-rule: tokens, binding vectors, blockers,
// matches and counters are owned by one reteRule, and a rule's
// propagation touches no other rule's state.
//
// Tokens live in a per-rule arena (reteRule.toks) and name each other,
// their elements and their binding vectors by int32 index, so the arena
// holds no pointer the garbage collector has to scan. Index 0 is the
// rule's root token; it is never a child, a sibling or a list member, so
// 0 also reads "none" in every link field. Every list a token sits on —
// its parent's children, the rule's tokens over one element, a hash
// bucket — is an intrusive doubly linked list through the token's own
// link fields, so attaching and deleting a token allocates nothing.

// betaNode is one join (or negative-join) node.
type betaNode struct {
	level int32 // position in the rule's chain
	mem   *alphaMem
	neg   bool
	joins []joinSpec
	projs []projSpec
	attrs attrSet // element attrs its joins/projs read

	// Hashed-join acceleration. When the node's first join is an equality
	// (hashed; hashSlot/hashAttr from the compiler), probes replace scans:
	// leftActivate consults the memory's value index on hashAttr, and
	// rightAssert consults the previous node's succIdx — its tokens keyed
	// by binds[hashSlot] — or, for negative nodes, this node's negIdx.
	// Both map a key to the head of a token bucket list.
	//
	// The token indexes are lazy: off until the first probe needs them
	// (succIndex/negIndex file the stored tokens), kept current by
	// attach/deleteToken afterwards. Seeding therefore files nothing, and
	// nodes over static classes — never hit by a right activation after
	// the seed — never pay index maintenance at all. The maps themselves
	// outlive a reset, emptied, so a recycled engine refiles into them
	// without allocating them again.
	hashed   bool
	hashSlot int
	hashAttr attrID
	memIdx   *memIndex
	succIdx  map[any]int32
	negIdx   map[any]int32
	succOn   bool
	negOn    bool

	prev, next *betaNode
	tokens     []int32 // the node's live tokens, in no particular order
}

// link is a token's place on one intrusive list.
type link struct{ prev, next int32 }

// Token bucket kinds: which index a token's bk link belongs to.
const (
	bkSucc = iota // its node's succIdx
	bkNeg         // its negative node's negIdx
)

// token is a stored partial match. For positive nodes, el is the slot of
// the element this level matched and binds the offset of the accumulated
// binding vector in the rule's binding arena (shared with the parent
// when the level binds nothing new). For negative nodes, el is -1 and
// blockers heads the list of elements currently blocking it.
type token struct {
	level  int32 // index of its node in the rule's chain; -1 for the root
	parent int32
	el     int32
	binds  int32
	idx    int32 // position in its node's tokens (swap-remove)
	match  int32 // production level: its match in the rule's registry; 0 none

	child    int32   // first child
	sib      link    // place among its parent's children
	elk      link    // place on the rule's list of tokens over el
	bk       [2]link // places in hash buckets, by bucket kind
	blockers int32   // negative nodes: head of the blocker list; 0 none
	dead     bool
}

// blocker is one element blocking a negative token, on that token's list.
type blocker struct{ el, next int32 }

// pass runs the node's join tests against the binding vector at off.
func (rr *reteRule) pass(n *betaNode, off int32, el *Element) bool {
	for _, j := range n.joins {
		v, ok := el.lookupID(j.attr)
		if !ok || v != rr.binds[int(off)+j.slot] {
			return false
		}
	}
	return true
}

// --- per-rule beta operations (methods on reteRule, defined in rete.go) ---

// newToken takes a token from the rule's free list, or grows the arena.
// It may move the arena: callers re-index rr.toks after it.
func (rr *reteRule) newToken(n *betaNode, parent, el, binds int32) int32 {
	var t int32
	if k := len(rr.free); k > 0 {
		t = rr.free[k-1]
		rr.free = rr.free[:k-1]
	} else {
		t = int32(len(rr.toks))
		rr.toks = append(rr.toks, token{})
	}
	rr.toks[t] = token{level: n.level, parent: parent, el: el, binds: binds}
	return t
}

// newBinds returns the offset of a binding vector the caller overwrites
// in full: a recycled one, or a fresh one at the arena's end.
func (rr *reteRule) newBinds() int32 {
	if k := len(rr.bindsFree); k > 0 {
		off := rr.bindsFree[k-1]
		rr.bindsFree = rr.bindsFree[:k-1]
		return off
	}
	off := len(rr.binds)
	rr.binds = append(rr.binds, rr.binds[:rr.stride]...) // the root's all-nil vector
	rr.bindsHi = max(rr.bindsHi, len(rr.binds))
	return int32(off)
}

// leftActivate matches a new left token against the node's memory as of
// event s and extends the chain. Hashed nodes probe the memory's value
// index with the token's bound slot instead of scanning every entry.
func (rr *reteRule) leftActivate(n *betaNode, left int32, s int) {
	entries := n.mem.entries
	lb := rr.toks[left].binds
	var hit int32 // first bucket position+1; the chain runs through ix.links
	var ix *memIndex
	if n.hashed {
		ix = n.memIdx
		hit = ix.head(rr.binds[int(lb)+n.hashSlot])
	}
	if n.neg {
		t := rr.newToken(n, left, -1, lb)
		if n.hashed {
			for p := hit; p != 0; p = ix.links[p-1].next {
				rr.blockBy(n, t, lb, &entries[p-1], s)
			}
		} else {
			for i := range entries {
				rr.blockBy(n, t, lb, &entries[i], s)
			}
		}
		rr.attach(n, left, t)
		if rr.toks[t].blockers == 0 {
			rr.downstream(n, t, s)
		}
		return
	}
	if n.hashed {
		for p := hit; p != 0; p = ix.links[p-1].next {
			en := &entries[p-1]
			if !en.visible(s) {
				continue
			}
			rr.stats.joinTests++
			if rr.pass(n, lb, en.el) {
				rr.extend(n, left, en.el, s)
			}
		}
		return
	}
	for i := range entries {
		en := &entries[i]
		if !en.visible(s) {
			continue
		}
		rr.stats.joinTests++
		if rr.pass(n, lb, en.el) {
			rr.extend(n, left, en.el, s)
		}
	}
}

// blockBy joins a new negative token t, whose bindings sit at lb, with
// one memory entry, recording the entry's element as a blocker on a pass.
func (rr *reteRule) blockBy(n *betaNode, t, lb int32, en *memEntry, s int) {
	if !en.visible(s) {
		return
	}
	rr.stats.joinTests++
	if rr.pass(n, lb, en.el) {
		rr.addBlocker(t, int32(en.el.ID))
	}
}

// extend derives the token joining left with el at a positive node.
func (rr *reteRule) extend(n *betaNode, left int32, el *Element, s int) {
	binds := rr.toks[left].binds
	if len(n.projs) > 0 {
		off := rr.newBinds()
		copy(rr.binds[off:int(off)+rr.stride], rr.binds[binds:int(binds)+rr.stride])
		for _, pj := range n.projs {
			v, _ := el.lookupID(pj.attr)
			rr.binds[int(off)+pj.slot] = v
		}
		binds = off
	}
	t := rr.newToken(n, left, int32(el.ID), binds)
	rr.attach(n, left, t)
	rr.downstream(n, t, s)
}

// attach files a new token t under its node, its parent left, and every
// index kept on the node.
func (rr *reteRule) attach(n *betaNode, left, t int32) {
	tk := &rr.toks[t]
	tk.idx = int32(len(n.tokens))
	n.tokens = append(n.tokens, t)
	lt := &rr.toks[left]
	tk.sib = link{next: lt.child}
	if lt.child != 0 {
		rr.toks[lt.child].sib.prev = t
	}
	lt.child = t
	if n.succOn {
		rr.bucketPush(n.succIdx, rr.binds[int(tk.binds)+n.next.hashSlot], t, bkSucc)
	}
	if n.negOn {
		rr.bucketPush(n.negIdx, rr.binds[int(tk.binds)+n.hashSlot], t, bkNeg)
	}
	if tk.el >= 0 {
		rr.elTok = growSlots(rr.elTok, int(tk.el))
		head := rr.elTok[tk.el]
		tk.elk = link{next: head}
		if head != 0 {
			rr.toks[head].elk.prev = t
		}
		rr.elTok[tk.el] = t
	}
	rr.stats.asserts++
}

// bucketPush puts t at the head of bucket k of one of its node's token
// indexes.
func (rr *reteRule) bucketPush(m map[any]int32, k any, t int32, kind int) {
	head := m[k]
	rr.toks[t].bk[kind] = link{next: head}
	if head != 0 {
		rr.toks[head].bk[kind].prev = t
	}
	m[k] = t
}

// bucketUnlink takes t out of bucket k, dropping the key once the bucket
// empties.
func (rr *reteRule) bucketUnlink(m map[any]int32, k any, t int32, kind int) {
	l := rr.toks[t].bk[kind]
	switch {
	case l.prev != 0:
		rr.toks[l.prev].bk[kind].next = l.next
	case l.next != 0:
		m[k] = l.next
	default:
		delete(m, k)
	}
	if l.next != 0 {
		rr.toks[l.next].bk[kind].prev = l.prev
	}
}

// succIndex returns the node's tokens bucketed by the NEXT node's hash
// slot, filing them on first use.
func (rr *reteRule) succIndex(n *betaNode) map[any]int32 {
	if !n.succOn {
		if n.succIdx == nil {
			n.succIdx = make(map[any]int32, len(n.tokens))
		}
		for _, t := range n.tokens {
			rr.bucketPush(n.succIdx, rr.binds[int(rr.toks[t].binds)+n.next.hashSlot], t, bkSucc)
		}
		n.succOn = true
	}
	return n.succIdx
}

// negIndex returns a negative node's own tokens bucketed by its hash
// slot, filing them on first use.
func (rr *reteRule) negIndex(n *betaNode) map[any]int32 {
	if !n.negOn {
		if n.negIdx == nil {
			n.negIdx = make(map[any]int32, len(n.tokens))
		}
		for _, t := range n.tokens {
			rr.bucketPush(n.negIdx, rr.binds[int(rr.toks[t].binds)+n.hashSlot], t, bkNeg)
		}
		n.negOn = true
	}
	return n.negIdx
}

// elTokens returns the head of the rule's list of positive tokens that
// matched the element in slot el.
func (rr *reteRule) elTokens(el int) int32 {
	if el < len(rr.elTok) {
		return rr.elTok[el]
	}
	return 0
}

// downstream continues propagation past n, or emits a match at the last
// level.
func (rr *reteRule) downstream(n *betaNode, t int32, s int) {
	if n.next == nil {
		rr.addMatch(t)
		return
	}
	rr.leftActivate(n.next, t, s)
}

// rightAssert handles an element entering n's alpha memory at event s.
// The element is already in the memory (visible at s); joining against
// stored left tokens derives exactly the new tokens. Nodes are processed
// in descending level order per event (rete.go), so a left token created
// by THIS event at an earlier level has already joined the full memory —
// including this element — via leftActivate, and is not yet stored when
// this node runs: no duplicates on self-joins. Hashed nodes probe the
// token indexes with the element's join-attribute value instead of
// scanning the level.
//
// Neither loop below changes the list it walks: blocking deletes only
// tokens at later levels, and extend adds only at n and beyond.
func (rr *reteRule) rightAssert(n *betaNode, el *Element, s int) {
	if n.neg {
		id := int32(el.ID)
		if !n.hashed {
			for _, t := range n.tokens {
				rr.blockWith(n, t, el, id)
			}
			return
		}
		v, ok := el.lookupID(n.hashAttr)
		if !ok {
			return // the first join requires the attribute present
		}
		for t := rr.negIndex(n)[v]; t != 0; t = rr.toks[t].bk[bkNeg].next {
			rr.blockWith(n, t, el, id)
		}
		return
	}
	if !n.hashed {
		for _, left := range rr.leftTokens(n) {
			if rr.toks[left].blockers != 0 {
				continue
			}
			rr.stats.joinTests++
			if rr.pass(n, rr.toks[left].binds, el) {
				rr.extend(n, left, el, s)
			}
		}
		return
	}
	v, ok := el.lookupID(n.hashAttr)
	if !ok {
		return
	}
	for left := rr.succIndex(n.prev)[v]; left != 0; left = rr.toks[left].bk[bkSucc].next {
		if rr.toks[left].blockers != 0 {
			continue
		}
		rr.stats.joinTests++
		if rr.pass(n, rr.toks[left].binds, el) {
			rr.extend(n, left, el, s)
		}
	}
}

// blockWith joins a stored negative token t with an element entering the
// node's memory; a pass adds the element, in slot id, to t's blockers,
// and the first blocker severs t's derivations.
func (rr *reteRule) blockWith(n *betaNode, t int32, el *Element, id int32) {
	rr.stats.joinTests++
	if !rr.pass(n, rr.toks[t].binds, el) {
		return
	}
	rr.addBlocker(t, id)
	if rr.blk[rr.toks[t].blockers].next == 0 {
		rr.block(t)
	}
}

// rightRetract handles an element leaving n's alpha memory at event s.
func (rr *reteRule) rightRetract(n *betaNode, el *Element, s int) {
	if n.neg {
		id := int32(el.ID)
		for _, t := range n.tokens {
			if rr.dropBlocker(t, id) && rr.toks[t].blockers == 0 {
				rr.downstream(n, t, s)
			}
		}
		return
	}
	rr.scratch = rr.scratch[:0]
	for t := rr.elTokens(el.ID); t != 0; t = rr.toks[t].elk.next {
		if rr.toks[t].level == n.level {
			rr.scratch = append(rr.scratch, t)
		}
	}
	for _, t := range rr.scratch {
		rr.deleteToken(t)
	}
}

// addBlocker records el as blocking negative token t.
func (rr *reteRule) addBlocker(t, el int32) {
	b := rr.blkFree
	if b != 0 {
		rr.blkFree = rr.blk[b].next
	} else {
		b = int32(len(rr.blk))
		rr.blk = append(rr.blk, blocker{})
	}
	rr.blk[b] = blocker{el: el, next: rr.toks[t].blockers}
	rr.toks[t].blockers = b
}

// dropBlocker removes el from t's blockers, reporting whether it was one.
func (rr *reteRule) dropBlocker(t, el int32) bool {
	prev := int32(0)
	for b := rr.toks[t].blockers; b != 0; prev, b = b, rr.blk[b].next {
		if rr.blk[b].el != el {
			continue
		}
		if prev == 0 {
			rr.toks[t].blockers = rr.blk[b].next
		} else {
			rr.blk[prev].next = rr.blk[b].next
		}
		rr.blk[b].next = rr.blkFree
		rr.blkFree = b
		return true
	}
	return false
}

// leftTokens returns the stored left inputs of a node: the rule's root
// for level 0, else the previous node's tokens.
func (rr *reteRule) leftTokens(n *betaNode) []int32 {
	if n.prev == nil {
		return rootTokens[:]
	}
	return n.prev.tokens
}

// rootTokens is level 0's left input: the root token alone.
var rootTokens = [1]int32{0}

// deleteToken removes a token and cascades through its descendants.
func (rr *reteRule) deleteToken(t int32) {
	tk := &rr.toks[t]
	if tk.dead {
		return
	}
	tk.dead = true
	n := rr.nodes[tk.level]
	last := len(n.tokens) - 1
	moved := n.tokens[last]
	n.tokens[tk.idx] = moved
	rr.toks[moved].idx = tk.idx
	n.tokens = n.tokens[:last]
	if n.succOn {
		rr.bucketUnlink(n.succIdx, rr.binds[int(tk.binds)+n.next.hashSlot], t, bkSucc)
	}
	if n.negOn {
		rr.bucketUnlink(n.negIdx, rr.binds[int(tk.binds)+n.hashSlot], t, bkNeg)
	}
	if l := tk.elk; tk.el >= 0 {
		if l.prev != 0 {
			rr.toks[l.prev].elk.next = l.next
		} else {
			rr.elTok[tk.el] = l.next
		}
		if l.next != 0 {
			rr.toks[l.next].elk.prev = l.prev
		}
	}
	if l := tk.sib; l.prev != 0 {
		rr.toks[l.prev].sib.next = l.next
	} else {
		rr.toks[tk.parent].child = l.next
	}
	if l := tk.sib; l.next != 0 {
		rr.toks[l.next].sib.prev = l.prev
	}
	rr.block(t)
	rr.stats.retracts++
	// The cascade above severed every link to t (indexes, parent,
	// children, conflict set), so it, its blockers and — when this level
	// took one in extend — its binding vector can be recycled.
	// Descendants sharing the vector were just deleted with it, and fired
	// matches render their bindings at fire time, so nothing live can
	// still read either. Deletion never grows the arena, so tk is current.
	if tk.el >= 0 && len(n.projs) > 0 {
		rr.bindsFree = append(rr.bindsFree, tk.binds)
	}
	if b := tk.blockers; b != 0 {
		for rr.blk[b].next != 0 {
			b = rr.blk[b].next
		}
		rr.blk[b].next = rr.blkFree
		rr.blkFree = tk.blockers
		tk.blockers = 0
	}
	rr.free = append(rr.free, t)
}

// block severs a token's downstream derivations: its children and, when
// the token sits at the production level, its conflict-set entry.
func (rr *reteRule) block(t int32) {
	for c := rr.toks[t].child; c != 0; c = rr.toks[t].child {
		rr.deleteToken(c) // unlinks c from t's children
	}
	if rr.toks[t].match != 0 {
		rr.removeMatch(t)
	}
}

// newMatch returns a clean match object for the rule: a recycled one, or
// a new one registered for reuse.
func (rr *reteRule) newMatch() *Match {
	var m *Match
	switch {
	case len(rr.msFree) > 0:
		m = rr.ms[rr.msFree[len(rr.msFree)-1]]
		rr.msFree = rr.msFree[:len(rr.msFree)-1]
	case rr.msUsed < len(rr.ms):
		m = rr.ms[rr.msUsed]
		rr.msUsed++
	default:
		m = &Match{Rule: rr.r, Elements: make([]*Element, rr.cr.positives), id: int32(len(rr.ms))}
		rr.ms = append(rr.ms, m)
		rr.msUsed++
	}
	rr.msHi = max(rr.msHi, rr.msUsed)
	m.onAgenda = false
	return m
}

// addMatch emits a token's instantiation into the rule's conflict set
// and, unless refraction rules it out, onto the rule's agenda.
func (rr *reteRule) addMatch(t int32) {
	m := rr.newMatch()
	i := len(m.Elements)
	for x := t; x != 0; x = rr.toks[x].parent {
		if el := rr.toks[x].el; el >= 0 {
			i--
			m.Elements[i] = rr.net.els[el]
		}
	}
	off := int(rr.toks[t].binds)
	m.binds = bindings{names: rr.cr.slotNames, vals: rr.binds[off : off+rr.stride : off+rr.stride]}
	m.tok = t
	rr.toks[t].match = m.id
	m.csIdx = int32(len(rr.cs))
	rr.cs = append(rr.cs, m)
	rr.schedule(m)
	rr.stats.matchAdds++
}

// removeMatch takes t's match out of the conflict set and the agenda and
// returns it to the registry's free list.
func (rr *reteRule) removeMatch(t int32) {
	m := rr.ms[rr.toks[t].match]
	if m.onAgenda {
		rr.unschedule(m)
	}
	last := len(rr.cs) - 1
	moved := rr.cs[last]
	rr.cs[m.csIdx] = moved
	moved.csIdx = m.csIdx
	rr.cs = rr.cs[:last]
	rr.toks[t].match = 0
	rr.msFree = append(rr.msFree, m.id)
	rr.stats.matchDels++
}
