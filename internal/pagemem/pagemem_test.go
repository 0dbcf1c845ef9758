package pagemem

import "testing"

// pagesUsed counts the allocated pages.
func (w *Words) pagesUsed() int {
	n := 0
	for _, p := range w.pages {
		if p != nil {
			n++
		}
	}
	return n
}

func TestPagedUntouchedReadsZero(t *testing.T) {
	w := New(1 << 16)
	for _, i := range []int{0, 1, 255, 256, 1<<16 - 1} {
		if v := w.Get(i); v != 0 {
			t.Errorf("Get(%d) = %#x on a fresh memory, want 0", i, v)
		}
	}
	if n := w.pagesUsed(); n != 0 {
		t.Errorf("fresh memory holds %d pages, want 0", n)
	}
}

func TestPagedAllocateOnNonzeroWrite(t *testing.T) {
	w := New(1 << 16)
	w.Set(10, 0) // a zero write to an untouched page changes nothing
	if n := w.pagesUsed(); n != 0 {
		t.Fatalf("zero write allocated %d pages", n)
	}
	w.Set(10, 7)
	w.Set(11, 8)
	w.Set(1<<16-1, 9)
	if n := w.pagesUsed(); n != 2 {
		t.Fatalf("%d pages after writes to two pages, want 2", n)
	}
	for i, want := range map[int]uint64{10: 7, 11: 8, 12: 0, 1<<16 - 1: 9, 1<<16 - 2: 0} {
		if got := w.Get(i); got != want {
			t.Errorf("Get(%d) = %d, want %d", i, got, want)
		}
	}
	w.Set(10, 0) // zero over a written word sticks
	if got := w.Get(10); got != 0 {
		t.Errorf("Get(10) = %d after zeroing, want 0", got)
	}
}

func TestPagedShortLastPage(t *testing.T) {
	for _, n := range []int{1, 16, pageWords + 3} {
		w := New(n)
		w.Set(n-1, 5)
		if got := w.Get(n - 1); got != 5 {
			t.Errorf("n=%d: last word = %d, want 5", n, got)
		}
		if got := len(w.pages[len(w.pages)-1]); got != n-(n-1)&^pageMask {
			t.Errorf("n=%d: last page holds %d words, want %d", n, got, n-(n-1)&^pageMask)
		}
	}
}

func TestPagedOutOfRangePanics(t *testing.T) {
	w := New(16)
	for _, i := range []int{-1, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) on a 16-word memory did not panic", i)
				}
			}()
			w.Get(i)
		}()
	}
}
