package main

// The closed-loop load driver: a fixed number of clients, each sending its
// next request only after the previous reply has been read and checked.
// This service's real callers (`daa -remote`, CI jobs, exploration scripts)
// all wait for each reply, so a closed loop is the honest model.

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one completed request. It holds no pointers and goes into a
// buffer sized before the window starts, so the benchmark's own memory
// neither grows with throughput nor adds to the garbage collector's work,
// and peak_rss_mb measures the servers.
type outcome struct {
	lat, done time.Duration // done: completion, from the start of the window
	worker    int8          // index of the X-DAAD-Worker reply header, -1 if absent
	hit       bool          // X-DAAD-Cache: hit
	failed    bool
}

// loadRun is the record of one timed window.
type loadRun struct {
	outcomes []outcome
	firstErr error
	elapsed  time.Duration
	// marks are the process counters at the slice boundaries, first at the
	// start of the window, last at its deadline.
	marks []mark
}

// mark is a reading of the process counters.
type mark struct {
	at    time.Duration
	cpuMS float64
	alloc uint64 // runtime.MemStats.TotalAlloc
}

func readMark(start time.Time) mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{at: time.Since(start), cpuMS: cpuMS(), alloc: ms.TotalAlloc}
}

type driver struct {
	wl      *workload
	gen     *generator
	chk     *checker
	client  *http.Client
	workers map[string]int8 // worker ID -> index
	// next is the next stream position; it only grows, so every salted
	// input of a process is unique.
	next atomic.Int64
}

func newDriver(wl *workload, gen *generator, chk *checker, workerIDs []string) *driver {
	tr := &http.Transport{MaxIdleConnsPerHost: wl.clients, MaxConnsPerHost: wl.clients, DisableCompression: true}
	dr := &driver{wl: wl, gen: gen, chk: chk, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, workers: map[string]int8{}}
	for i, id := range workerIDs {
		dr.workers[id] = int8(i)
	}
	return dr
}

func (dr *driver) closeIdle() { dr.client.CloseIdleConnections() }

// post sends one request body and reads the whole reply into buf, which
// the caller reuses: the client's own garbage would otherwise add to the
// collector's work in the servers it measures. The reply aliases buf.
func (dr *driver) post(url string, body []byte, buf *bytes.Buffer) (*http.Response, []byte, error) {
	resp, err := dr.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp, buf.Bytes(), fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	}
	return resp, buf.Bytes(), nil
}

// one sends stream position i to base and checks the reply. tr may be nil.
func (dr *driver) one(base, tier string, i int, buf *bytes.Buffer, tr *tracer) (outcome, error) {
	root := tr.begin(0, "client.request", "")
	defer tr.end(root)
	sp := tr.begin(root, "client.encode", "")
	d, body, err := dr.gen.input(i)
	tr.end(sp)
	design := dr.gen.names[d]
	tr.label(root, design)
	o := outcome{worker: -1, failed: true}
	if err != nil {
		return o, err
	}
	sp = tr.begin(root, "http."+tier, design)
	t0 := time.Now()
	resp, reply, err := dr.post(base+dr.gen.endpoint(), body, buf)
	o.lat = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return o, err
	}
	if w, ok := dr.workers[resp.Header.Get("X-DAAD-Worker")]; ok {
		o.worker = w
	}
	o.hit = resp.Header.Get("X-DAAD-Cache") == "hit"
	sp = tr.begin(root, "client.check", design)
	err = dr.chk.check(dr.wl, design, reply)
	tr.end(sp)
	o.failed = err != nil
	return o, err
}

// run drives the closed loop against base for dur, reading the process
// counters at the boundaries of `slices` equal slices of the window.
func (dr *driver) run(base, tier string, dur time.Duration, slices int, tr *tracer) loadRun {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
		// Room for 8000 requests a second, over twice the fastest
		// workload's rate on the reference machine; past it append grows.
		lr = loadRun{outcomes: make([]outcome, 0, int(dur.Seconds()*8000)+1024)}
	)
	start := time.Now()
	deadline := start.Add(dur)
	lr.marks = []mark{readMark(start)}
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k <= slices; k++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(k) / time.Duration(slices))))
			lr.marks = append(lr.marks, readMark(start))
		}
	}()
	for c := 0; c < dr.wl.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(dr.next.Add(1) - 1)
				o, err := dr.one(base, tier, i, &buf, tr)
				o.done = time.Since(start)
				mu.Lock()
				lr.outcomes = append(lr.outcomes, o)
				if err != nil && lr.firstErr == nil {
					lr.firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	lr.elapsed = time.Since(start)
	<-sampled
	return lr
}

// slice is the end-to-end reading of one slice of a window: the requests
// that completed inside it and the counters at its boundaries.
type slice struct {
	rps, cpuPerReq, allocKBPerReq float64
	lats                          []float64 // ms, successful requests
}

// slices splits a window at its marks. Requests still in flight at the
// deadline belong to no slice.
func (lr loadRun) slices() []slice {
	var out []slice
	for k := 1; k < len(lr.marks); k++ {
		lo, hi := lr.marks[k-1], lr.marks[k]
		var lats []float64
		n := 0
		for _, o := range lr.outcomes {
			if o.done < lo.at || o.done >= hi.at {
				continue
			}
			n++
			if !o.failed {
				lats = append(lats, float64(o.lat)/float64(time.Millisecond))
			}
		}
		if n == 0 {
			continue
		}
		sec := (hi.at - lo.at).Seconds()
		out = append(out, slice{
			rps:           float64(len(lats)) / sec,
			cpuPerReq:     (hi.cpuMS - lo.cpuMS) / float64(n),
			allocKBPerReq: float64(hi.alloc-lo.alloc) / 1024 / float64(n),
			lats:          lats,
		})
	}
	return out
}

// summary is the end-to-end reading of one or more windows.
type summary struct {
	attempted, failed int
	firstErr          error
	lats              []float64 // ms, successful requests, sorted
	elapsed           time.Duration
}

func summarize(runs ...loadRun) summary {
	var s summary
	for _, r := range runs {
		s.elapsed += r.elapsed
		if s.firstErr == nil {
			s.firstErr = r.firstErr
		}
		for _, o := range r.outcomes {
			s.attempted++
			if o.failed {
				s.failed++
				continue
			}
			s.lats = append(s.lats, float64(o.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(s.lats)
	return s
}

func (s summary) ok() int { return s.attempted - s.failed }

func (s summary) rps() float64 { return float64(s.ok()) / s.elapsed.Seconds() }

// percentile is the nearest-rank percentile of sorted values, and the
// number of samples strictly beyond it.
func percentile(sorted []float64, p float64) (float64, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	idx := max(int(math.Ceil(float64(len(sorted))*p))-1, 0)
	return sorted[idx], len(sorted) - idx - 1
}

// median of unsorted values (copied, not reordered).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// groupedTail cuts consecutive slices into groups that each hold enough
// samples to leave ten beyond percentile p, and returns the median over
// groups of each group's percentile, with the number of groups.
func groupedTail(sl []slice, p float64) (float64, int) {
	need := int(math.Ceil(10 / (1 - p)))
	var tails, cur []float64
	for _, x := range sl {
		cur = append(cur, x.lats...)
		if len(cur) >= need {
			sort.Float64s(cur)
			v, _ := percentile(cur, p)
			tails = append(tails, v)
			cur = nil
		}
	}
	return median(tails), len(tails)
}
