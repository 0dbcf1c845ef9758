// Package pagemem is the word store behind the simulators' memories. The
// benchmark processors declare 64K-word memories, but a run touches a few
// hundred words of them, and both simulators build fresh storage for every
// cosimulation vector. A Words therefore allocates a page only when a
// nonzero value is first written to it; every untouched word reads 0, as
// a cleared memory does.
package pagemem

const (
	pageBits  = 8
	pageWords = 1 << pageBits
	pageMask  = pageWords - 1
)

// Words is a memory of n 64-bit words, all initially zero. Indexes must
// lie in [0, n); callers range-check against the declaration first, so an
// out-of-range index is a caller bug and panics.
type Words struct {
	n     int
	pages [][]uint64
}

// New returns an all-zero memory of n words. Only the page table is
// allocated.
func New(n int) *Words {
	return &Words{n: n, pages: make([][]uint64, (n+pageWords-1)>>pageBits)}
}

// Get reads word i.
func (w *Words) Get(i int) uint64 {
	if uint(i) >= uint(w.n) {
		panic("pagemem: index out of range")
	}
	if p := w.pages[i>>pageBits]; p != nil {
		return p[i&pageMask]
	}
	return 0
}

// Set writes word i, allocating its page on the first nonzero write. The
// last page is only as long as the memory needs, so a memory smaller than
// a page costs no more than a flat slice.
func (w *Words) Set(i int, v uint64) {
	if uint(i) >= uint(w.n) {
		panic("pagemem: index out of range")
	}
	p := w.pages[i>>pageBits]
	if p == nil {
		if v == 0 {
			return
		}
		base := i &^ pageMask
		p = make([]uint64, min(pageWords, w.n-base))
		w.pages[i>>pageBits] = p
	}
	p[i&pageMask] = v
}
