package main

// In-process serving topologies, booted from the public constructors on
// loopback exactly as `daad` and `daad -cluster 2` boot them.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

type topology struct {
	workers    []*serve.Server
	workerURLs map[string]string // worker ID -> base URL
	co         *cluster.Coordinator
	// target is the base URL the load is sent to: the coordinator when
	// there is one, else the single worker.
	target string
	cancel context.CancelFunc
	// served receives one value per Serve goroutine when it returns.
	served chan error
	nserve int
}

// boot starts the workload's topology and returns once it answers
// /v1/healthz?ready=1 with every ring member up. Workers warm before they
// report ready, as `daad -warmup` does, so the first request of the load
// does not pay the process's lazy set-up.
func boot(wl *workload) (*topology, error) {
	ctx, cancel := context.WithCancel(context.Background())
	t := &topology{workerURLs: map[string]string{}, cancel: cancel, served: make(chan error, 3)}
	n := 1
	if wl.cluster {
		n = 2
	}
	var peers []cluster.Peer
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, fmt.Errorf("worker %s listen: %w", id, err)
		}
		s := serve.New(serve.Config{ID: id})
		s.SetReady(false)
		t.workers = append(t.workers, s)
		t.workerURLs[id] = "http://" + l.Addr().String()
		peers = append(peers, cluster.Peer{ID: id, URL: t.workerURLs[id]})
		t.serve(func() error { return s.Serve(l) })
	}
	warmed := make(chan error, n)
	for _, s := range t.workers {
		go func(s *serve.Server) {
			err := s.Warm(ctx)
			s.SetReady(true)
			warmed <- err
		}(s)
	}
	var warmErr error
	for range t.workers {
		warmErr = errors.Join(warmErr, <-warmed)
	}
	if warmErr != nil {
		t.close()
		return nil, fmt.Errorf("warm-up: %w", warmErr)
	}
	t.target = t.workerURLs["w0"]
	if wl.cluster {
		co, err := cluster.New(cluster.Config{Peers: peers})
		if err != nil {
			t.close()
			return nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, fmt.Errorf("coordinator listen: %w", err)
		}
		co.Start(ctx)
		t.co = co
		t.target = "http://" + l.Addr().String()
		t.serve(func() error { return co.Serve(l) })
	}
	if err := waitReady(t.target, n, wl.cluster); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *topology) serve(fn func() error) {
	t.nserve++
	go func() { t.served <- fn() }()
}

// waitReady polls readiness until the topology answers with every ring
// member up, or gives up after ten seconds.
func waitReady(base string, peers int, coordinator bool) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok, err := ready(client, base, peers, coordinator)
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 10s: %v", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func ready(client *http.Client, base string, peers int, coordinator bool) (bool, error) {
	resp, err := client.Get(base + "/v1/healthz?ready=1")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	if !coordinator {
		return true, nil
	}
	var h cluster.HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		return false, err
	}
	if h.PeersUp != peers {
		return false, fmt.Errorf("%d of %d peers up", h.PeersUp, peers)
	}
	return true, nil
}

// close drains the coordinator first, then the workers, and waits for every
// Serve goroutine to return.
func (t *topology) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	if t.co != nil {
		err = t.co.Shutdown(ctx)
	}
	for _, s := range t.workers {
		err = errors.Join(err, s.Shutdown(ctx))
	}
	t.cancel()
	for i := 0; i < t.nserve; i++ {
		if serr := <-t.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
	}
	return err
}
