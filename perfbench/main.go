// Command perfbench is the repository's benchmark. It boots the serving
// stack in-process (serve.New, cluster.New) on loopback, drives one named
// workload with a closed loop of one or two clients, checks every response,
// and prints one JSON result line.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload cold-synth --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant and reports the per-layer metrics (see README.md).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many fresh processes each run boots to time set-up.
const setupRuns = 15

// sliceLen is the length of the slices the untraced window is cut into:
// throughput and per-request CPU and allocation are medians over slices, so
// a burst of noise from outside the process moves one slice, not the
// result, and the tail groups are whole slices.
const sliceLen = 2 * time.Second

func main() {
	var (
		name       = flag.String("workload", "cold-synth", "workload: cold-synth, hot-repeat or sweep")
		seed       = flag.Uint64("seed", 1, "input stream seed")
		seconds    = flag.Int("seconds", 20, "measured seconds")
		trace      = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		outdir     = flag.String("outdir", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its spans to")
		setupChild = flag.Bool("setup-child", false, "boot the workload's topology, print ready, drain and exit (set-up timing)")
	)
	flag.Parse()
	wl, err := workloadByName(*name)
	if err != nil {
		fail(err)
	}
	if *setupChild {
		if err := setupChildMain(wl); err != nil {
			fail(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	b := &runner{wl: wl, seed: *seed, dur: time.Duration(*seconds) * time.Second, root: ".", outdir: *outdir}
	var res *result
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// setupChildMain is the body of a set-up timing process.
func setupChildMain(wl *workload) error {
	t, err := boot(wl)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	return t.close()
}

// measureSetup boots the topology in n fresh processes and returns the
// median wall time from exec until the topology reported ready, in seconds.
// A fresh process each time means package initialisation and every lazy
// first-use cost count, so work moved out of the request path into start-up
// shows here.
func measureSetup(wl *workload, n int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ds []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-child", "-workload", wl.name)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		if werr := cmd.Wait(); werr != nil || rerr != nil || line != "ready\n" {
			return 0, fmt.Errorf("set-up process: %q, read: %v, exit: %v", line, rerr, werr)
		}
		ds = append(ds, d.Seconds())
	}
	return median(ds), nil
}

// cpuMS is the process's user+system CPU time so far, in ms.
func cpuMS() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// peakRSSMB is the process's VmHWM in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
