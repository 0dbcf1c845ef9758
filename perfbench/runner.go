package main

// The two kinds of run: untraced (end-to-end metrics, tracing off) and
// traced (per-layer metrics from benchmark-side spans, /v1/metrics deltas
// and an in-process replay).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/serve"
)

type runner struct {
	wl     *workload
	seed   uint64
	dur    time.Duration
	root   string
	outdir string

	gen *generator
	chk *checker
	top *topology
	dr  *driver
	// attempted/failed count every checked operation of the run.
	attempted, failed int
	firstErr          error
}

// tier names the hop the load goes through, for span names.
func (r *runner) tier() string {
	if r.wl.cluster {
		return "coordinator"
	}
	return "worker"
}

// start builds the inputs and references, boots the topology and runs one
// untimed balanced round through it. hot-repeat keeps that round's bodies
// as its references once they pass the oracle checks.
func (r *runner) start() error {
	var err error
	if r.gen, err = newGenerator(r.wl, r.seed); err != nil {
		return err
	}
	if r.chk, err = newChecker(r.root, r.gen.names); err != nil {
		return err
	}
	if r.top, err = boot(r.wl); err != nil {
		return err
	}
	r.dr = newDriver(r.wl, r.gen, r.chk, sortedKeys(r.top.workerURLs))
	for range r.gen.names {
		i := int(r.dr.next.Add(1) - 1)
		d, body, err := r.gen.input(i)
		if err != nil {
			return err
		}
		design := r.gen.names[d]
		_, reply, err := r.dr.post(r.top.target+r.gen.endpoint(), body, new(bytes.Buffer))
		if err == nil {
			err = r.chk.checkOracle(r.wl, design, reply)
		}
		r.count(err)
		if err == nil && !r.wl.salted {
			r.chk.warm[design] = reply
		}
	}
	return nil
}

func (r *runner) stop() {
	r.dr.closeIdle()
	if err := r.top.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
	}
}

func (r *runner) count(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

func (r *runner) countRun(s summary) {
	r.attempted += s.attempted
	r.failed += s.failed
	if r.firstErr == nil {
		r.firstErr = s.firstErr
	}
}

func (r *runner) result(m map[string]metric) *result {
	if r.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", r.firstErr)
	}
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// untraced measures the end-to-end metrics with tracing off.
func (r *runner) untraced() (*result, error) {
	setup, err := measureSetup(r.wl, setupRuns)
	if err != nil {
		return nil, err
	}
	if err := r.start(); err != nil {
		return nil, err
	}
	defer r.stop()

	runtime.GC()
	lr := r.dr.run(r.top.target, r.tier(), r.dur, max(int(r.dur/sliceLen), 1), nil)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	s := summarize(lr)
	r.countRun(s)
	sl := lr.slices()
	if s.ok() == 0 || len(sl) == 0 {
		return nil, fmt.Errorf("no request succeeded: %v", s.firstErr)
	}
	p50, _ := percentile(s.lats, 0.5)
	wholeTail, beyond := percentile(s.lats, r.wl.tail)
	tail, groups := groupedTail(sl, r.wl.tail)
	fmt.Printf("%s: %d requests in %.2fs, %d failed; whole window %s %.4f ms with %d samples beyond; latency_tail_ms over %d groups\n",
		r.wl.name, s.attempted, s.elapsed.Seconds(), s.failed, r.wl.tailName, wholeTail, beyond, groups)
	if groups == 0 {
		return nil, fmt.Errorf("fewer than %.0f samples: no %s with ten beyond it; lengthen --seconds", 10/(1-r.wl.tail), r.wl.tailName)
	}
	var rps, cpu, alloc []float64
	for _, x := range sl {
		fmt.Printf("  slice: %.2f req/s, %.4f cpu ms/req, %.2f KiB/req\n", x.rps, x.cpuPerReq, x.allocKBPerReq)
		rps, cpu, alloc = append(rps, x.rps), append(cpu, x.cpuPerReq), append(alloc, x.allocKBPerReq)
	}
	return r.result(map[string]metric{
		"throughput_rps":   {median(rps), "1/s"},
		"latency_p50_ms":   {p50, "ms"},
		"latency_tail_ms":  {tail, "ms"},
		"cpu_ms_per_req":   {median(cpu), "ms"},
		"alloc_kb_per_req": {median(alloc), "KiB"},
		"peak_rss_mb":      {rss, "MiB"},
		"setup_s":          {setup, "s"},
	}), nil
}

// snapshot is the counter state around the traced load.
type snapshot struct {
	workers []serve.MetricsResponse
	coord   cluster.MetricsResponse
	front   flow.CacheStats
	mem     runtime.MemStats
}

func (r *runner) snapshot() (snapshot, error) {
	var sn snapshot
	for _, id := range sortedKeys(r.top.workerURLs) {
		var m serve.MetricsResponse
		if err := getJSON(r.dr.client, r.top.workerURLs[id]+"/v1/metrics", &m); err != nil {
			return sn, err
		}
		sn.workers = append(sn.workers, m)
	}
	if r.wl.cluster {
		if err := getJSON(r.dr.client, r.top.target+"/v1/metrics", &sn.coord); err != nil {
			return sn, err
		}
	}
	sn.front = flow.FrontCacheStats()
	runtime.ReadMemStats(&sn.mem)
	return sn, nil
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.Unmarshal(b, v)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traced measures the per-layer metrics. The load runs in four equal
// windows alternating tracing off and on, so the difference between the
// two halves is the tracing overhead; then, with the load stopped, probes
// time single requests and the replay pushes inputs through each layer.
func (r *runner) traced() (*result, error) {
	if err := r.start(); err != nil {
		return nil, err
	}
	defer r.stop()
	tr := newTracer()
	m := map[string]metric{}

	before, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	var off, on []loadRun
	for w := 0; w < 4; w++ {
		if w%2 == 0 {
			off = append(off, r.dr.run(r.top.target, r.tier(), r.dur/4, 1, nil))
		} else {
			on = append(on, r.dr.run(r.top.target, r.tier(), r.dur/4, 1, tr))
		}
	}
	after, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	sOff, sOn := summarize(off...), summarize(on...)
	r.countRun(sOff)
	r.countRun(sOn)
	reqs := float64(sOff.attempted + sOn.attempted)
	p50Off, _ := percentile(sOff.lats, 0.5)
	p50On, _ := percentile(sOn.lats, 0.5)
	m["trace.overhead_p50_ms"] = metric{p50On - p50Off, "ms"}
	m["trace.overhead_rps_pct"] = metric{100 * ratio(sOff.rps()-sOn.rps(), sOff.rps()), "%"}

	var hits, lookups, evictions float64
	for i := range after.workers {
		a, b := after.workers[i].DesignCache, before.workers[i].DesignCache
		hits += float64(a.Hits - b.Hits)
		lookups += float64(a.Hits - b.Hits + a.Misses - b.Misses)
		evictions += float64(a.Evictions - b.Evictions)
	}
	m["serve.design_cache.hit_ratio"] = metric{ratio(hits, lookups), "ratio"}
	m["serve.design_cache.evictions"] = metric{evictions, "count"}
	fa, fb := after.front, before.front
	m["flow.front_cache.hit_ratio"] = metric{ratio(float64(fa.Hits-fb.Hits), float64(fa.Hits-fb.Hits+fa.Misses-fb.Misses)), "ratio"}
	m["cluster.failovers"] = metric{float64(after.coord.Failovers - before.coord.Failovers), "count"}
	m["cluster.coalesced"] = metric{float64(after.coord.Coalesced - before.coord.Coalesced), "count"}
	m["cluster.worker_hit_ratio.min"] = metric{minWorkerHitRatio(append(off, on...)), "ratio"}
	m["runtime.gc_cycles_per_req"] = metric{float64(after.mem.NumGC-before.mem.NumGC) / reqs, "count"}
	m["runtime.gc_pause_ms"] = metric{float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6 / reqs, "ms"}

	if err := r.probes(tr, m); err != nil {
		return nil, err
	}
	rr, err := replay(context.Background(), r.wl, r.gen, r.chk, tr)
	r.count(err)
	if err == nil {
		r.layerMetrics(tr, rr, m)
	}

	tr.writeSelfTimes(os.Stdout)
	if err := os.MkdirAll(r.outdir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(r.outdir, fmt.Sprintf("trace-%s-%d.json", r.wl.name, r.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("%s: %d spans written to %s\n", r.wl.name, len(tr.spans), path)
	return r.result(m), nil
}

// minWorkerHitRatio is the lowest per-worker share of design-cache hits,
// from the X-DAAD-Worker and X-DAAD-Cache headers of the load's replies.
func minWorkerHitRatio(runs []loadRun) float64 {
	type tally struct{ hits, all int }
	per := map[int8]*tally{}
	for _, lr := range runs {
		for _, o := range lr.outcomes {
			if o.failed {
				continue
			}
			t := per[o.worker]
			if t == nil {
				t = &tally{}
				per[o.worker] = t
			}
			t.all++
			if o.hit {
				t.hits++
			}
		}
	}
	lowest := -1.0
	for _, t := range per {
		if v := ratio(float64(t.hits), float64(t.all)); lowest < 0 || v < lowest {
			lowest = v
		}
	}
	return max(lowest, 0)
}

// probeReps is how many times each hit probe repeats, missReps each miss
// probe pair.
const (
	probeReps = 5
	missReps  = 4
)

// probes times single requests with the load stopped: a design-cache hit
// direct to its worker and through the coordinator, and a miss against the
// same compilation run in-process.
func (r *runner) probes(tr *tracer, m map[string]metric) error {
	// The most recent stream position of each design was answered last, so
	// it is still in its worker's cache.
	last := map[int]int{}
	for i := int(r.dr.next.Load()) - 1; i >= 0 && len(last) < len(r.gen.names); i-- {
		if d := r.gen.designAt(i); last[d] == 0 {
			last[d] = i + 1
		}
	}
	var direct, via []float64
	for d, name := range r.gen.names {
		_, body, err := r.gen.input(last[d] - 1)
		if err != nil {
			return err
		}
		owner := r.top.workerURLs["w0"]
		if r.wl.cluster {
			_, owner, err = r.probe(tr, "probe.hit", "http.coordinator", name, r.top.target+r.gen.endpoint(), body)
			r.count(err)
			owner = r.top.workerURLs[owner]
		}
		for k := 0; k < probeReps; k++ {
			lat, _, err := r.probe(tr, "probe.hit", "http.worker", name, owner+r.gen.endpoint(), body)
			r.count(err)
			direct = append(direct, lat)
			if r.wl.cluster {
				lat, _, err := r.probe(tr, "probe.hit", "http.coordinator", name, r.top.target+r.gen.endpoint(), body)
				r.count(err)
				via = append(via, lat)
			}
		}
	}
	m["serve.hit_rtt_ms"] = metric{median(direct), "ms"}
	hop := 0.0
	if r.wl.cluster {
		hop = median(via) - median(direct)
	}
	m["cluster.hop_ms"] = metric{hop, "ms"}

	// Miss overhead: fresh inputs to a worker against fresh inputs of the
	// same design compiled in-process with the same options, alternating
	// which goes first. Per design the median difference; reported is the
	// median over designs.
	grid, err := sweepFlowGrid()
	if err != nil {
		return err
	}
	var overheads []float64
	for d, name := range r.gen.names {
		var rtts, inprocs []float64
		for k := 0; k < missReps; k++ {
			viaHTTP := func() error {
				body, err := r.gen.encode(d, fmt.Sprintf("probe-miss-%d-%d", d, k))
				if err != nil {
					return err
				}
				rtt, _, err := r.probe(tr, "probe.miss", "http.worker", name, r.top.workerURLs["w0"]+r.gen.endpoint(), body)
				rtts = append(rtts, rtt)
				return err
			}
			inProcess := func() error {
				in := flow.Input{Name: name + ".isps", Source: r.gen.salted(d, fmt.Sprintf("probe-inproc-%d-%d", d, k))}
				root := tr.begin(0, "probe.miss", name)
				defer tr.end(root)
				sp := tr.begin(root, "inproc.flow", name)
				defer tr.end(sp)
				t0 := time.Now()
				var err error
				if r.wl.explore {
					_, err = flow.Explore(context.Background(), in, flow.Options{}, grid)
				} else {
					_, err = flow.Compile(context.Background(), in, compileOptions(r.wl))
				}
				inprocs = append(inprocs, float64(time.Since(t0))/float64(time.Millisecond))
				return err
			}
			if k%2 == 0 {
				r.count(viaHTTP())
				r.count(inProcess())
			} else {
				r.count(inProcess())
				r.count(viaHTTP())
			}
		}
		overheads = append(overheads, median(rtts)-median(inprocs))
	}
	m["serve.miss_overhead_ms"] = metric{median(overheads), "ms"}
	return nil
}

// probe sends one body to url, checks the reply and returns its round-trip
// time in ms and the answering worker's ID. A "probe.hit" reply must be a
// design-cache hit and pass the workload's check; a "probe.miss" reply, a
// fresh input, must pass the oracle checks.
func (r *runner) probe(tr *tracer, rootName, spanName, design, url string, body []byte) (float64, string, error) {
	root := tr.begin(0, rootName, design)
	defer tr.end(root)
	sp := tr.begin(root, spanName, design)
	t0 := time.Now()
	resp, reply, err := r.dr.post(url, body, new(bytes.Buffer))
	lat := float64(time.Since(t0)) / float64(time.Millisecond)
	tr.end(sp)
	if err != nil {
		return lat, "", err
	}
	worker := resp.Header.Get("X-DAAD-Worker")
	if rootName == "probe.miss" {
		return lat, worker, r.chk.checkOracle(r.wl, design, reply)
	}
	if cache := resp.Header.Get("X-DAAD-Cache"); cache != "hit" {
		return lat, worker, fmt.Errorf("%s: probe expected a design-cache hit, got %q", design, cache)
	}
	return lat, worker, r.chk.check(r.wl, design, reply)
}

// layerMetrics derives the replay's per-layer metrics.
func (r *runner) layerMetrics(tr *tracer, rr *replayResult, m map[string]metric) {
	ms := func(name, span string) { m[name] = metric{tr.perDesignMean(span), "ms"} }
	ms("isps.parse_ms", "isps.ParseOnly")
	ms("isps.sema_ms", "isps.Analyze")
	ms("vt.build_ms", "vt.Build")
	ms("prod.rule_compile_ms", "prod.compile")
	ms("rtl.validate_ms", "rtl.Validate")
	ms("rtl.emit_ms", "rtl.WriteVerilog")
	ms("cosim.run_ms", "flow.RunCosim")
	ms("alloc.leftedge_ms", "alloc.LeftEdge")
	ms("alloc.naive_ms", "alloc.Naive")
	ms("sched.list_ms", "sched.List")
	ms("flow.explore_ms", "flow.Explore")
	m["cost.design_us"] = metric{1000 * tr.perDesignMean("cost.Design"), "us"}
	for design, ds := range tr.byName("core.SynthesizeContext") {
		m["core.synth_ms."+design] = metric{median(durMS(ds)), "ms"}
	}
	var compiles []time.Duration
	for _, ds := range tr.byName("flow.Compile") {
		compiles = append(compiles, ds...)
	}
	cms := durMS(compiles)
	sort.Float64s(cms)
	p50, _ := percentile(cms, 0.5)
	p99, _ := percentile(cms, 0.99)
	m["flow.compile_ms.p50"] = metric{p50, "ms"}
	m["flow.compile_ms.p99"] = metric{p99, "ms"}
	for _, phase := range core.PhaseOrder {
		m["core.phase_ms."+phase] = metric{meanOfMedians(rr.phaseMS[phase]), "ms"}
	}
	m["prod.match_ms"] = metric{meanOfMedians(rr.matchTime), "ms"}
	var kb float64
	for _, v := range rr.allocKB {
		kb += median(v)
	}
	m["prod.alloc_kb_per_synth"] = metric{kb / float64(len(rr.allocKB)), "KiB"}

	// Exact counts, totalled over one balanced round (one synthesis of each
	// of the nine designs); they repeat exactly across runs and seeds.
	var tot engineCounts
	for _, c := range rr.counts {
		tot.firings += c.firings
		tot.cycles += c.cycles
		tot.matchCalls += c.matchCalls
		tot.alphaEvals += c.alphaEvals
		tot.joinTests += c.joinTests
		tot.tokenAsserts += c.tokenAsserts
		tot.tokenRetracts += c.tokenRetracts
		tot.rebuilds += c.rebuilds
		tot.conflictPeak = max(tot.conflictPeak, c.conflictPeak)
		tot.cosimSamples += c.cosimSamples
		tot.ops += c.ops
	}
	count := func(name string, v int) { m[name] = metric{float64(v), "count"} }
	count("core.firings", tot.firings)
	count("core.cycles", tot.cycles)
	count("prod.match_calls", tot.matchCalls)
	count("prod.alpha_evals", tot.alphaEvals)
	count("prod.join_tests", tot.joinTests)
	count("prod.token_asserts", tot.tokenAsserts)
	count("prod.token_retracts", tot.tokenRetracts)
	count("prod.rebuilds", tot.rebuilds)
	count("prod.conflict_peak", tot.conflictPeak)
	count("cosim.samples", tot.cosimSamples)
	count("vt.ops", tot.ops)
}
