package main

// Design-space exploration: -explore sweeps a knob grid around the
// flag-selected base options and prints the Pareto front. The grid syntax
// is whitespace-separated knob=v1,v2 terms with integer ranges
// ("memports=1..4", "maxops=0..8:2"); -knobs lists every knob with its
// domain and default. Local and -remote sweeps render through the same
// serve.RenderFront table — and with -json, the local output is
// byte-identical to the daemon's POST /v1/explore response body.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/flow"
	"repro/internal/serve"
)

// runKnobs lists the knob space: name, kind, default, domain, doc.
func runKnobs(w io.Writer) error {
	fmt.Fprintln(w, "synthesis knobs (grid axes for -explore, one point per value combination):")
	for _, k := range flow.KnobSpace() {
		domain := ""
		if len(k.Domain) > 0 {
			domain = " ∈ {" + strings.Join(k.Domain, ", ") + "}"
		}
		fmt.Fprintf(w, "\n  %s (%s, default %s)%s\n    %s\n", k.Name, k.Kind, k.Default, domain, k.Doc)
	}
	return nil
}

// runExplore evaluates the grid locally and renders the front.
func runExplore(w io.Writer, in flow.Input, o options) error {
	grid, err := flow.ParseGridSpec(o.exploreSpec)
	if err != nil {
		return flow.Usagef("%v", err)
	}
	base, err := exploreBase(o)
	if err != nil {
		return err
	}
	front, err := flow.Explore(context.Background(), in, base, grid)
	if err != nil {
		return err
	}
	return renderExplore(w, serve.NewExploreResponse(front), o.exploreJSON)
}

// exploreBase builds the base option point the grid perturbs from the
// non-swept flags. Live-state flags (-trace, -journal) are refused.
// -exhaustive reaches the base here and the daemon's base as
// options.exhaustive; it selects the matcher, which cannot change a
// design, and stays out of Options.Key, so local fronts match remote ones.
func exploreBase(o options) (flow.Options, error) {
	if o.trace || o.journal != "" || o.explain != "" {
		return flow.Options{}, flow.Usagef("-trace, -journal, and -explain are per-run outputs; not supported with -explore")
	}
	base := flow.Options{Allocator: o.allocator}
	base.Core.DisableCleanup = o.noCleanup
	base.Core.ExhaustiveMatch = o.exhaustive
	switch o.allocator {
	case flow.AllocDAA, flow.AllocLeftEdge, flow.AllocNaive:
	default:
		return flow.Options{}, flow.Usagef("unknown allocator %q (want daa, leftedge, or naive)", o.allocator)
	}
	return base, nil
}

// renderExplore writes the front as the shared table or as the daemon's
// JSON body (byte-identical to POST /v1/explore).
func renderExplore(w io.Writer, resp *serve.ExploreResponse, asJSON bool) error {
	if asJSON {
		body, err := json.MarshalIndent(resp, "", "  ")
		if err != nil {
			return err
		}
		_, err = w.Write(append(body, '\n'))
		return err
	}
	serve.RenderFront(w, resp)
	if resp.Evaluated == 0 && resp.Failed > 0 {
		return fmt.Errorf("every grid point failed; see the table above")
	}
	return nil
}

// runRemoteExplore sends the sweep to a daad daemon (or cluster
// coordinator) and renders the same table/JSON as a local run.
func runRemoteExplore(w io.Writer, in flow.Input, o options) error {
	grid, err := flow.ParseGridSpec(o.exploreSpec)
	if err != nil {
		return flow.Usagef("%v", err)
	}
	if _, err := exploreBase(o); err != nil {
		return err // same flag validation as local sweeps
	}
	wireGrid := make(map[string]serve.GridAxis, len(grid))
	for _, ax := range grid {
		wireGrid[ax.Name] = serve.GridAxis(ax.Values)
	}
	req := serve.ExploreRequest{
		Name:   in.Name,
		Source: in.Source,
		Grid:   wireGrid,
		Options: serve.RequestOptions{
			Allocator:  o.allocator,
			NoCleanup:  o.noCleanup,
			Exhaustive: o.exhaustive,
		},
	}
	resp, err := postExplore(o.remote, req)
	if err != nil {
		return err
	}
	return renderExplore(w, resp, o.exploreJSON)
}

// postExplore sends one sweep to the daemon, mapping error bodies onto the
// local taxonomy like postSynthesize.
func postExplore(base string, req serve.ExploreRequest) (*serve.ExploreResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	endpoint := strings.TrimRight(base, "/") + "/v1/explore"
	httpResp, err := doIdempotent(func() (*http.Request, error) {
		hr, err := http.NewRequest(http.MethodPost, endpoint, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", "application/json")
		return hr, nil
	})
	if err != nil {
		return nil, fmt.Errorf("remote %s: %w", base, err)
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(httpResp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("remote %s: reading response: %w", base, err)
	}
	if httpResp.StatusCode != http.StatusOK {
		var er serve.ErrorResponse
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			return nil, fmt.Errorf("remote %s: %s (%s)", base, er.Error, er.Kind)
		}
		return nil, fmt.Errorf("remote %s: HTTP %d", base, httpResp.StatusCode)
	}
	var out serve.ExploreResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("remote %s: malformed response: %w", base, err)
	}
	return &out, nil
}
