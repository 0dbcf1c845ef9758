// Package prod implements a forward-chaining production-rule engine in the
// style of OPS5, the substrate the VLSI Design Automation Assistant
// (Kowalski & Thomas, DAC 1983) was written in.
//
// Knowledge is expressed as rules whose left-hand sides are declarative
// patterns over a working memory of class/attribute elements and whose
// right-hand sides are actions that make, modify, and remove elements. The
// engine repeatedly computes the conflict set (every rule instantiation
// whose patterns match), selects one instantiation by OPS5-style conflict
// resolution — refraction, then recency of the matched elements, then
// specificity, then declaration order — and fires it, until the conflict
// set is empty or a rule halts the engine.
//
// The default matcher is a compiled Rete network (rete.go, alpha.go,
// beta.go, compile.go): each rule's left-hand side is compiled at AddRule
// time into interned alpha constant tests feeding shared alpha memories,
// and a chain of beta join nodes holding partial-match tokens — negated
// patterns become negative nodes carrying per-token blocker lists. The
// working memory emits a change notification for every Make, Modify, and
// Remove; between firings the network propagates only those deltas, so
// match work is proportional to change, not to working-memory size.
// Each rule also keeps an agenda
// (agenda.go): its unfired instantiations in conflict-resolution order,
// with refraction checked once when an instantiation is scheduled, so
// selecting the next firing reads the agenda tops instead of rescanning
// the conflict set. The network keeps its own alpha memories; the working
// memory's (class, attribute, value) index serves only the interpreted
// matcher below and is built on its first probe.
//
// One interpreted matcher is kept alongside it: Engine.Exhaustive
// recomputes the conflict set from scratch each cycle
// (matcher_exhaustive.go), the reference the Rete agenda is checked
// against. Conflict-resolution semantics — refraction, recency,
// specificity, declaration order — are bit-for-bit identical across the
// two, and Engine.CrossCheck runs them in lockstep, diffing the selected
// instantiation every cycle. See Engine.Metrics for the per-rule
// match-cost and network observability this enables.
package prod

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Element is a working-memory element: a typed bag of attribute/value
// pairs. Values may be any comparable Go value; pointers into the value
// trace or the RTL design are the common case in internal/core.
//
// Attributes are stored as a small association slice keyed by interned
// attribute ids (attrID): elements carry a handful of attributes and the
// matcher probes them constantly, where a linear scan comparing small
// integers beats map hashing. ID numbers the elements of one working
// memory densely from zero, and the Rete network indexes its per-element
// state by it (the element's slot; see DESIGN.md, "Engine memory layout").
type Element struct {
	ID    int
	Class string
	Time  int // recency tag: bumped on creation and each modification

	attrs   []attrSlot
	deleted bool
}

type attrSlot struct {
	id  attrID
	val any
}

// lookupID returns the value of the interned attribute id and presence:
// the matcher's probe.
func (e *Element) lookupID(id attrID) (any, bool) {
	for i := range e.attrs {
		if e.attrs[i].id == id {
			return e.attrs[i].val, true
		}
	}
	return nil, false
}

// lookup returns the attribute value and presence by name. It compares
// names through the symbol table rather than interning attr, so probing
// a name no element ever carried adds nothing to the table.
func (e *Element) lookup(attr string) (any, bool) {
	names := symbols.Load().names
	for i := range e.attrs {
		if names[e.attrs[i].id] == attr {
			return e.attrs[i].val, true
		}
	}
	return nil, false
}

func (e *Element) set(id attrID, v any) {
	for i := range e.attrs {
		if e.attrs[i].id == id {
			e.attrs[i].val = v
			return
		}
	}
	e.attrs = append(e.attrs, attrSlot{id, v})
}

func (e *Element) unset(id attrID) {
	for i := range e.attrs {
		if e.attrs[i].id == id {
			e.attrs = append(e.attrs[:i], e.attrs[i+1:]...)
			return
		}
	}
}

// attrID is an interned attribute name: its index in the process-wide
// symbol table. Rules intern their attribute names when they are
// compiled and working memories intern theirs on Make and Modify, so the
// matcher's element probes compare ids, never strings.
type attrID int32

// symbolTable is one immutable snapshot of the interned names.
type symbolTable struct {
	ids   map[string]attrID
	names []string // id -> name
}

// symbols is the process-wide attribute symbol table: read lock-free
// through the atomic snapshot, extended copy-on-write under symbolsMu.
// Attribute names come from rule and seeding code, not from input, so the
// table stays small; ids are opaque and never reach any output, so the
// order in which concurrent runs intern names cannot show.
var (
	symbols   atomic.Pointer[symbolTable]
	symbolsMu sync.Mutex
)

func init() { symbols.Store(&symbolTable{ids: map[string]attrID{}}) }

// internAttr returns name's id, adding it to the table on first use.
func internAttr(name string) attrID {
	if id, ok := symbols.Load().ids[name]; ok {
		return id
	}
	symbolsMu.Lock()
	defer symbolsMu.Unlock()
	old := symbols.Load()
	if id, ok := old.ids[name]; ok {
		return id
	}
	names := append(old.names[:len(old.names):len(old.names)], name)
	ids := make(map[string]attrID, len(names))
	for i, n := range names {
		ids[n] = attrID(i)
	}
	symbols.Store(&symbolTable{ids: ids, names: names})
	return attrID(len(names) - 1)
}

// attrName returns the name an id interns.
func attrName(id attrID) string { return symbols.Load().names[id] }

// attrSet is a bitset of interned attribute ids.
type attrSet []uint64

func (s *attrSet) add(id attrID) {
	w := int(id >> 6)
	if w >= len(*s) {
		*s = append(*s, make([]uint64, w+1-len(*s))...)
	}
	(*s)[w] |= 1 << (id & 63)
}

func (s attrSet) has(id attrID) bool {
	w := int(id >> 6)
	return w < len(s) && s[w]&(1<<(id&63)) != 0
}

// hasAny reports whether any of ids is in the set.
func (s attrSet) hasAny(ids []attrID) bool {
	for _, id := range ids {
		if s.has(id) {
			return true
		}
	}
	return false
}

// Get returns the value of attr, or nil when absent.
func (e *Element) Get(attr string) any {
	v, _ := e.lookup(attr)
	return v
}

// Has reports whether attr is present with a non-nil value.
func (e *Element) Has(attr string) bool {
	v, ok := e.lookup(attr)
	return ok && v != nil
}

// Int returns the attribute as an int (zero when absent or mistyped).
func (e *Element) Int(attr string) int {
	v, _ := e.Get(attr).(int)
	return v
}

// Str returns the attribute as a string (empty when absent or mistyped).
func (e *Element) Str(attr string) string {
	v, _ := e.Get(attr).(string)
	return v
}

// Bool returns the attribute as a bool (false when absent or mistyped).
func (e *Element) Bool(attr string) bool {
	v, _ := e.Get(attr).(bool)
	return v
}

// Live reports whether the element is still in working memory.
func (e *Element) Live() bool { return !e.deleted }

func (e *Element) String() string {
	keys := e.attrNames()
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "(%s #%d", e.Class, e.ID)
	for _, k := range keys {
		v, _ := e.lookup(k)
		fmt.Fprintf(&b, " ^%s %v", k, v)
	}
	b.WriteString(")")
	return b.String()
}

// attrNames returns the names of the element's attributes, in slot order.
func (e *Element) attrNames() []string {
	names := symbols.Load().names
	keys := make([]string, 0, len(e.attrs))
	for _, s := range e.attrs {
		keys = append(keys, names[s.id])
	}
	return keys
}

// Attrs is the attribute/value map used to create or modify elements.
type Attrs map[string]any

// ChangeKind discriminates working-memory change notifications.
type ChangeKind uint8

const (
	ChangeMake   ChangeKind = iota // a new element entered working memory
	ChangeModify                   // an element's attributes changed
	ChangeRemove                   // an element left working memory
)

// Change is one working-memory mutation, delivered to observers registered
// with WM.Observe. For ChangeModify, Attrs names the attributes whose
// values actually changed (set, unset, or altered); a Modify that only
// bumps recency carries no attrs. For ChangeMake and ChangeRemove, Attrs
// is nil: every attribute of the element is considered touched.
type Change struct {
	Kind  ChangeKind
	El    *Element
	Attrs []string

	ids []attrID // Attrs interned, in the same order
}

// WM is a working memory: the set of live elements, indexed by class.
// The exhaustive matcher also probes a (class, attribute, value) index;
// the Rete network keeps its own alpha memories and never reads it, so
// that index is built on the first lookup and maintained only from then
// on — a Rete-only run never pays for it.
// Attribute values must be comparable Go values (ints, strings, bools,
// pointers); storing a non-comparable value (slice, map, function) panics
// with the class and attribute named.
type WM struct {
	byClass   map[string][]*Element
	byAttr    map[attrKey][]*Element // nil until the first lookup
	observers []func(Change)
	keys      []string // sortedKeys buffer
	// Make carves elements and their attribute slots, and Modify its
	// change lists, out of these chunks, so a run's elements and changes
	// cost a few allocations rather than two each. Chunks double up to
	// maxChunk, keeping a small WM small.
	elChunk   []Element
	slotChunk []attrSlot
	nameChunk []string
	idChunk   []attrID
	nextID    int
	clock     int
	count     int
	peak      int
}

type attrKey struct {
	class, attr string
	val         any
}

// NewWM returns an empty working memory.
func NewWM() *WM {
	return &WM{byClass: map[string][]*Element{}}
}

// Observe registers f to receive every subsequent working-memory change.
// The incremental matcher (Engine) is the primary observer; tracing and
// metrics layers may register too. Observers must not mutate the WM.
func (w *WM) Observe(f func(Change)) { w.observers = append(w.observers, f) }

func (w *WM) notify(c Change) {
	for _, f := range w.observers {
		f(c)
	}
}

// checkAttrValue rejects non-comparable attribute values up front: they
// would otherwise surface later as an opaque "hash of unhashable type"
// runtime panic inside the (class, attr, value) index or the old == v
// comparison in Modify.
func checkAttrValue(class, attr string, v any) {
	if v == nil {
		return
	}
	if t := reflect.TypeOf(v); !t.Comparable() {
		panic(fmt.Sprintf("prod: %s ^%s: attribute value of non-comparable type %s (working-memory values must be comparable: ints, strings, bools, pointers)", class, attr, t))
	}
}

// sortedKeys returns the attribute names in sorted order so attribute
// slots, index entries, and change notifications are independent of Go's
// randomized map iteration. The names go into the WM's key buffer, valid
// until the next Make or Modify.
func (w *WM) sortedKeys(a Attrs) []string {
	keys := w.keys[:0]
	for k := range a {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.keys = keys
	return keys
}

// Make creates a new element of the given class.
func (w *WM) Make(class string, attrs Attrs) *Element {
	w.clock++
	// One spare slot: rules commonly mark an element with one attribute
	// more (bound, done) after making it.
	e := w.newElement(len(attrs) + 1)
	e.ID, e.Class, e.Time = w.nextID, class, w.clock
	w.nextID++
	for _, k := range w.sortedKeys(attrs) {
		if v := attrs[k]; v != nil {
			checkAttrValue(class, k, v)
			e.set(internAttr(k), v)
			w.index(e, k, v)
		}
	}
	w.byClass[class] = append(w.byClass[class], e)
	w.count++
	if w.count > w.peak {
		w.peak = w.count
	}
	w.notify(Change{Kind: ChangeMake, El: e})
	return e
}

// maxChunk bounds the chunks Make and Modify carve from.
const maxChunk = 256

// reserve returns chunk with room for n more entries past its length,
// starting a new chunk when the current one is short. Slices already
// carved from the old chunk keep it alive for as long as they live.
func reserve[T any](chunk []T, n int) []T {
	if cap(chunk)-len(chunk) >= n {
		return chunk
	}
	return make([]T, 0, max(min(2*cap(chunk)+8, maxChunk), n))
}

// newElement returns a zero element from the current chunk with room for
// n attribute slots; appending past them reallocates that element's
// slots alone.
func (w *WM) newElement(n int) *Element {
	w.elChunk = reserve(w.elChunk, 1)
	w.elChunk = w.elChunk[:len(w.elChunk)+1]
	e := &w.elChunk[len(w.elChunk)-1]
	w.slotChunk = reserve(w.slotChunk, n)
	k := len(w.slotChunk)
	e.attrs = w.slotChunk[k : k : k+n]
	w.slotChunk = w.slotChunk[:k+n]
	return e
}

// index files e under (class, attr, val) once the attribute index exists.
func (w *WM) index(e *Element, attr string, val any) {
	if w.byAttr == nil {
		return
	}
	k := attrKey{e.Class, attr, val}
	w.byAttr[k] = append(w.byAttr[k], e)
}

func (w *WM) unindex(e *Element, attr string, val any) {
	if w.byAttr == nil {
		return
	}
	k := attrKey{e.Class, attr, val}
	list := w.byAttr[k]
	for i, x := range list {
		if x == e {
			w.byAttr[k] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// lookup returns the live elements of class whose attr equals val,
// building the attribute index from the class index on first use.
func (w *WM) lookup(class, attr string, val any) []*Element {
	if w.byAttr == nil {
		w.byAttr = map[attrKey][]*Element{}
		//daalint:allow detmap each bucket holds one class, filed in that class's creation order
		for _, es := range w.byClass {
			for _, e := range es {
				for _, s := range e.attrs {
					w.index(e, attrName(s.id), s.val)
				}
			}
		}
	}
	return w.byAttr[attrKey{class, attr, val}]
}

// Modify updates attributes of a live element and bumps its recency tag.
// Setting an attribute to nil removes it.
func (w *WM) Modify(e *Element, attrs Attrs) {
	if e.deleted {
		panic(fmt.Sprintf("prod: modify of removed element %s", e))
	}
	w.clock++
	e.Time = w.clock
	// Carve the change lists from chunks: the engine holds them until
	// the next cycle's match.
	w.nameChunk = reserve(w.nameChunk, len(attrs))
	w.idChunk = reserve(w.idChunk, len(attrs))
	changed := w.nameChunk[len(w.nameChunk):len(w.nameChunk)]
	ids := w.idChunk[len(w.idChunk):len(w.idChunk)]
	for _, k := range w.sortedKeys(attrs) {
		v := attrs[k]
		checkAttrValue(e.Class, k, v)
		id := internAttr(k)
		old, had := e.lookupID(id)
		if had {
			if old == v {
				continue
			}
			w.unindex(e, k, old)
		}
		if v == nil {
			if !had {
				continue
			}
			e.unset(id)
		} else {
			e.set(id, v)
			w.index(e, k, v)
		}
		changed = append(changed, k)
		ids = append(ids, id)
	}
	if len(changed) == 0 {
		changed, ids = nil, nil
	} else {
		w.nameChunk = w.nameChunk[:len(w.nameChunk)+len(changed)]
		w.idChunk = w.idChunk[:len(w.idChunk)+len(ids)]
		changed, ids = changed[:len(changed):len(changed)], ids[:len(ids):len(ids)]
	}
	w.notify(Change{Kind: ChangeModify, El: e, Attrs: changed, ids: ids})
}

// Remove deletes an element from working memory.
func (w *WM) Remove(e *Element) {
	if e.deleted {
		return
	}
	e.deleted = true
	w.count--
	class := w.byClass[e.Class]
	for i, x := range class {
		if x == e {
			w.byClass[e.Class] = append(class[:i], class[i+1:]...)
			break
		}
	}
	if w.byAttr != nil {
		for _, s := range e.attrs {
			w.unindex(e, attrName(s.id), s.val)
		}
	}
	w.notify(Change{Kind: ChangeRemove, El: e})
}

// Class returns the live elements of a class in creation order. The returned
// slice is shared; callers must not mutate it.
func (w *WM) Class(class string) []*Element { return w.byClass[class] }

// First returns the first live element of a class, or nil.
func (w *WM) First(class string) *Element {
	if es := w.byClass[class]; len(es) > 0 {
		return es[0]
	}
	return nil
}

// Size reports the number of live elements.
func (w *WM) Size() int { return w.count }

// Peak reports the maximum number of simultaneously live elements.
func (w *WM) Peak() int { return w.peak }

// Dump renders the working memory sorted by element ID, for debugging.
func (w *WM) Dump() string {
	var all []*Element
	for _, es := range w.byClass {
		all = append(all, es...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	var b strings.Builder
	for _, e := range all {
		b.WriteString(e.String())
		b.WriteString("\n")
	}
	return b.String()
}
