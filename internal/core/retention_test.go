package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rtl"
	"repro/internal/vt"
)

// retentionSrc gives every phase work: a test reduction and a loop for
// the trace rules, two reads of one memory port whose first value must be
// held across a step, exclusive decode arms whose temporaries the cleanup
// rules merge, and units they fold.
var retentionSrc = wrap("mem M[0:15]<7:0> reg P<3:0> reg A<7:0> reg B<7:0> reg OP<2:0> reg X<15:0> port in XIN<15:0> port out R<15:0>", `
        A := M[P] + M[P + 1]
        decode OP {
            0: { A := A + B  B := A + 3 }
            1: { A := A - B  B := A - 3 }
            2: A := A and B
            3: A := A or B
            otherwise: nop
        }
        X := XIN
        while X neq 0 { X := X - 1 }
        R := X`)

// TestPooledSynthesisRetainsNothing checks that the phase pools do not
// keep a finished synthesis alive: once the caller drops the result, the
// synth host, the returned design and the input trace must all become
// garbage, although the seven engines that served the run sit in the
// pools.
//
// Finalizers run in reference order — the synth holds the design, which
// holds the trace — so each collection frees one level: the synth after
// the first runtime.GC, the design after the second, the trace after the
// third. An engine Put back without its scrub keeps the synth reachable
// through Engine.Host until sync.Pool drops its victim cache, one
// collection later, so the first check fails.
func TestPooledSynthesisRetainsNothing(t *testing.T) {
	var synthGone, designGone, traceGone atomic.Bool
	func() {
		tr := trace(t, retentionSrc)
		s := newSynth(tr, Options{})
		res, err := s.synthesize(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, ph := range res.Stats.Phases {
			if ph.Firings == 0 {
				t.Fatalf("phase %s never fired: the workload leaves its engine idle", ph.Name)
			}
		}
		runtime.SetFinalizer(s, func(*synth) { synthGone.Store(true) })
		runtime.SetFinalizer(res.Design, func(*rtl.Design) { designGone.Store(true) })
		runtime.SetFinalizer(tr, func(*vt.Program) { traceGone.Store(true) })
	}()
	for _, level := range []struct {
		name string
		gone *atomic.Bool
	}{{"synth host", &synthGone}, {"design", &designGone}, {"input trace", &traceGone}} {
		runtime.GC()
		// Finalizers run on their own goroutine after the collection.
		deadline := time.Now().Add(5 * time.Second)
		for !level.gone.Load() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if !level.gone.Load() {
			t.Fatalf("the %s is still reachable after the synthesis returned: a pooled engine keeps the run alive", level.name)
		}
	}
}
