package main

// Workloads, their seeded input streams, and the output checkers.
//
// Every stream is built from balanced rounds: round r is a shuffle of the
// nine embedded designs keyed by (seed, r), so each design appears exactly
// once per round. Per-design counts stay exact and throughput cannot drift
// with the draw, which is what keeps a closed-loop run steady when one
// design (mcs6502) costs thirty times another (counter).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"

	_ "embed"

	"repro/internal/bench"
	"repro/internal/flow"
	"repro/internal/serve"
)

// workload is one named traffic mix.
type workload struct {
	name string
	// tail is the percentile reported as latency_tail_ms. It must sit inside
	// one design's mass (the slowest design is 1/9 of every round), never on
	// the boundary between two designs, and leave at least ten samples
	// beyond it in a run.
	tail     float64
	tailName string
	// cluster routes the load through a coordinator over two workers (the
	// `daad -cluster 2` topology); otherwise it goes to one worker.
	cluster bool
	// explore sends POST /v1/explore; otherwise POST /v1/synthesize.
	explore bool
	// cosim: the timed requests run the cosim stage (verify requests that
	// miss the design cache), so the replay runs it too.
	cosim bool
	// salted appends a unique trailing comment to every input so each one
	// misses every cache; unsalted inputs repeat nine request bodies.
	salted bool
	// clients is the closed-loop concurrency, each client on its own
	// keep-alive connection: enough to keep both CPUs of the 2-CPU machine
	// the bounds were set on busy. A synthesize request runs on one CPU, so
	// those workloads take one client per CPU. An explore request already
	// fans its six points out over both CPUs; a second sweep client adds no
	// throughput, only queueing behind the other client's request, which
	// made the sweep median swing with the host's speed.
	clients int
}

var workloads = []*workload{
	{name: "cold-synth", tail: 0.99, tailName: "p99", salted: true, cosim: true, clients: 2},
	{name: "hot-repeat", tail: 0.99, tailName: "p99", cluster: true, clients: 2},
	{name: "sweep", tail: 0.95, tailName: "p95", explore: true, salted: true, clients: 1},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sweepGrid is the explore grid of the sweep workload: the paper's
// allocator comparison (E2) crossed with its cleanup ablation (E4). memports
// and cosim stay at their defaults (see README.md for why).
var sweepGrid = map[string]serve.GridAxis{
	"allocator": {"daa", "leftedge", "naive"},
	"cleanup":   {"true", "false"},
}

// sweepFlowGrid is sweepGrid as the in-process flow.Explore takes it.
func sweepFlowGrid() (flow.Grid, error) {
	axes := map[string][]string{}
	for k, v := range sweepGrid {
		axes[k] = v
	}
	return flow.ParseGrid(axes)
}

// synthOptions are the options of every synthesize request: the default
// DAA with the cosim verdict and the Verilog artifact, so each response can
// be checked against an independent oracle and a committed golden file.
var (
	synthOptions   = serve.RequestOptions{Verify: true}
	synthArtifacts = serve.ArtifactRequest{Verilog: true}
)

// generator produces the request stream of one workload under one seed.
type generator struct {
	wl      *workload
	seed    uint64
	names   []string
	sources []string
	// fixed holds the nine unsalted request bodies (hot-repeat).
	fixed [][]byte
}

func newGenerator(wl *workload, seed uint64) (*generator, error) {
	g := &generator{wl: wl, seed: seed, names: bench.Names()}
	for _, name := range g.names {
		src, err := bench.Source(name)
		if err != nil {
			return nil, err
		}
		g.sources = append(g.sources, src)
	}
	if !wl.salted {
		for d := range g.names {
			b, err := g.encode(d, "")
			if err != nil {
				return nil, err
			}
			g.fixed = append(g.fixed, b)
		}
	}
	return g, nil
}

// designAt is the design index of stream position i.
func (g *generator) designAt(i int) int {
	n := len(g.names)
	perm := rand.New(rand.NewPCG(g.seed, uint64(i/n))).Perm(n)
	return perm[i%n]
}

// input returns the design index and request body of stream position i.
func (g *generator) input(i int) (int, []byte, error) {
	d := g.designAt(i)
	if !g.wl.salted {
		return d, g.fixed[d], nil
	}
	b, err := g.encode(d, fmt.Sprint(i))
	return d, b, err
}

// salted returns design d's source with the salt tag as a trailing ISPS
// comment: the content hash changes, the design does not.
func (g *generator) salted(d int, tag string) string {
	src := g.sources[d]
	if tag == "" {
		return src
	}
	if !strings.HasSuffix(src, "\n") {
		src += "\n"
	}
	return fmt.Sprintf("%s! %d/%s\n", src, g.seed, tag)
}

// encode builds the request body for design d with salt tag (empty: none).
func (g *generator) encode(d int, tag string) ([]byte, error) {
	name := g.names[d] + ".isps"
	src := g.salted(d, tag)
	if g.wl.explore {
		return json.Marshal(serve.ExploreRequest{Name: name, Source: src, Grid: sweepGrid})
	}
	return json.Marshal(serve.SynthesizeRequest{Name: name, Source: src, Options: synthOptions, Artifacts: synthArtifacts})
}

// endpoint is the path every request of the workload posts to.
func (g *generator) endpoint() string {
	if g.wl.explore {
		return "/v1/explore"
	}
	return "/v1/synthesize"
}

// expectedPoint is one row of the committed sweep table.
type expectedPoint struct {
	KnobKey  string  `json:"knobKey"`
	Cost     float64 `json:"cost"`
	Area     int     `json:"area"`
	Steps    int     `json:"steps"`
	Frontier bool    `json:"frontier"`
	Failed   bool    `json:"failed"`
}

//go:embed expected_fronts.json
var expectedFrontsJSON []byte

// checker holds the references responses are compared against. None of
// them is produced by the run under test: the Verilog goldens are the
// repository's committed files, the fronts are this benchmark's committed
// table, and the hot-repeat references are checked against both before use.
type checker struct {
	golden map[string][]byte
	fronts map[string][]expectedPoint
	// warm holds hot-repeat's per-design warm-up response bodies.
	warm map[string][]byte
}

// newChecker reads the goldens under root, the repository checkout.
func newChecker(root string, names []string) (*checker, error) {
	c := &checker{golden: map[string][]byte{}, warm: map[string][]byte{}}
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(root, "internal", "rtl", "testdata", "golden", name+".v"))
		if err != nil {
			return nil, fmt.Errorf("golden Verilog: %w", err)
		}
		c.golden[name] = b
	}
	if err := json.Unmarshal(expectedFrontsJSON, &c.fronts); err != nil {
		return nil, fmt.Errorf("expected_fronts.json: %w", err)
	}
	for _, name := range names {
		if len(c.fronts[name]) == 0 {
			return nil, fmt.Errorf("expected_fronts.json: no front for %s", name)
		}
	}
	return c, nil
}

// checkSynth checks a synthesize response: Verilog byte-equal to the golden
// file, and a cosim verdict of equivalent.
func (c *checker) checkSynth(design string, body []byte) error {
	var resp serve.SynthesizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: decode: %w", design, err)
	}
	if resp.Artifacts == nil || resp.Artifacts.Verilog != string(c.golden[design]) {
		return fmt.Errorf("%s: Verilog differs from the golden file", design)
	}
	if resp.Equivalence == nil || !resp.Equivalence.Equivalent {
		return fmt.Errorf("%s: cosim verdict is not equivalent", design)
	}
	return nil
}

// checkFront checks an explore response against the committed table.
func (c *checker) checkFront(design string, body []byte) error {
	var resp serve.ExploreResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: decode: %w", design, err)
	}
	return c.compareFront(design, resp.Points)
}

func (c *checker) compareFront(design string, pts []serve.ExplorePoint) error {
	want := c.fronts[design]
	if len(pts) != len(want) {
		return fmt.Errorf("%s: front has %d points, want %d", design, len(pts), len(want))
	}
	for i, p := range pts {
		got := expectedPoint{KnobKey: p.KnobKey, Cost: p.Cost, Area: p.Area, Steps: p.Steps, Frontier: p.Frontier, Failed: p.Failed}
		if got != want[i] {
			return fmt.Errorf("%s: point %d is %+v, want %+v", design, i, got, want[i])
		}
	}
	return nil
}

// checkOracle checks a reply against the committed references: the front
// table for explore replies, the goldens and the cosim verdict otherwise.
func (c *checker) checkOracle(wl *workload, design string, body []byte) error {
	if wl.explore {
		return c.checkFront(design, body)
	}
	return c.checkSynth(design, body)
}

// check is the per-request check of the load: hot-repeat compares bytes
// with the design's warm-up response, the others run the oracle checks.
func (c *checker) check(wl *workload, design string, body []byte) error {
	if wl.salted {
		return c.checkOracle(wl, design, body)
	}
	want, ok := c.warm[design]
	if !ok {
		return fmt.Errorf("%s: no warm-up response", design)
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%s: body differs from the warm-up response", design)
	}
	return nil
}
