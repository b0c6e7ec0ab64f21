// Command fleetbench is DomainNet's end-to-end benchmark. It generates its
// inputs from a seed, brings the system under test up in-process through
// the repo's public packages, drives one workload for a fixed time, checks
// the outputs, and prints one JSON result line:
//
//	fleetbench --workload detect_tus|serve_read|serve_write --seed N \
//	           --seconds S --trace 0|1 [--out DIR]
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing installed. With --trace 1 the same workload runs twice on one
// set-up, untraced and then traced; the result carries the per-layer
// metrics plus the tracing overhead (traced minus untraced median), and the
// spans, counters and the workload's full per-layer table go to one JSON
// file under --out. Every workload reports every metric of the result line.
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd and perLayer list the metrics of the result line, with their
// units: every workload reports all of them, each as its workload defines
// it (README.md). endToEnd is reported with --trace 0, perLayer with
// --trace 1.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"peak_rss_mb", "MB"},
		{"success_rate", "ratio"},
		{"op_p50_ms", "ms"},
		{"op_cpu_ms", "ms"},
		{"precision", "ratio"},
	}
	perLayer = []metricDef{
		{"datagen.lake_ms", "ms"},
		{"bipartite.build_ms", "ms"},
		{"bipartite.alloc_mb", "MB"},
		{"centrality.score_ms", "ms"},
		{"centrality.alloc_mb", "MB"},
		{"centrality.speedup", "ratio"},
		{"rank.rank_ms", "ms"},
		{"setup.first_s", "s"},
		{"trace.overhead_ms", "ms"},
	}
)

type metricDef struct{ name, unit string }

// warmup is the length of the untimed pass ahead of the timed one.
const warmup = 3 * time.Second

// pass is the outcome of one timed window of a workload.
type pass struct {
	attempted, failed int64
	// invalid, when set, says why the pass cannot stand as a measurement
	// (an open-loop generator that fell behind its own schedule).
	invalid string
	// e2e holds the end-to-end metrics, layer the per-layer figures of a
	// traced pass: those named in perLayer and the workload's own, which
	// go to the trace file only.
	e2e, layer map[string]float64
}

func newPass() *pass {
	return &pass{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts one failed op or check and logs why.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	fmt.Fprintf(os.Stderr, "fleetbench: FAIL: "+format+"\n", args...)
}

// sut is a set-up system under test.
type sut interface {
	// measure runs the workload for d and checks its outputs; tr is nil for
	// an untraced pass.
	measure(d time.Duration, tr *tracer) *pass
	// finish runs the end-of-run checks into p and tears the system down.
	// With a tracer it also records the layers of the checks' reference
	// detection into p.layer.
	finish(p *pass, tr *tracer)
}

// workload sets up a system under test. setupLayer receives the setup
// phases' per-layer figures (milliseconds or bytes, keyed by metric name).
type workload struct {
	setups int // set-ups per run; setup_s is their median
	start  func(seed int64) (s sut, setupLayer map[string]float64, err error)
}

var workloads = map[string]workload{
	"detect_tus":  {setups: 5, start: startDetect},
	"serve_read":  {setups: 3, start: startRead},
	"serve_write": {setups: 3, start: startWrite},
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	procStart := time.Now()
	os.Exit(run(procStart, os.Args[1:], os.Stdout, os.Stderr))
}

func run(procStart time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "detect_tus, serve_read or serve_write")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	traceOn := fs.Int("trace", 0, "1 runs a traced pass and reports per-layer metrics")
	out := fs.String("out", ".bench_build/fleetbench-traces", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "fleetbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	// Set up several times and report the median as setup_s, so one slow
	// set-up does not read as a regression. The first set-up is timed from
	// the entry to main and reported on its own as setup.first_s: it alone
	// pays for cold caches and first-use initialisation.
	var setups []float64
	phases := map[string][]float64{}
	var s sut
	for i := 0; i < w.setups; i++ {
		if i > 0 {
			// Start every set-up from a collected heap, so the system the
			// set-up before it left does not raise peak_rss_mb by an amount
			// that depends on when the collector last ran.
			runtime.GC()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		var layer map[string]float64
		var err error
		if s, layer, err = w.start(*seed); err != nil {
			fmt.Fprintf(stderr, "fleetbench: %s set-up: %v\n", *name, err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
		for k, v := range layer {
			phases[k] = append(phases[k], v)
		}
		if i < w.setups-1 {
			p := newPass()
			s.finish(p, nil)
			if p.failed > 0 {
				return 1
			}
			s = nil // let the next set-up's collection free it
		}
	}

	fmt.Fprintf(stderr, "fleetbench: set-ups s: %v\n", setups)

	// Run the workload's own load untimed first, so the timed pass starts
	// on warm caches and a heap sized for it. Its failures count; a
	// generator that fell behind while the process warmed does not
	// invalidate the timed passes.
	warm := s.measure(warmup, nil)
	d := time.Duration(*seconds) * time.Second
	p := s.measure(d, nil)
	timed := []*pass{p}
	var tr *tracer
	var traced *pass
	if *traceOn == 1 {
		tr = newTracer()
		traced = s.measure(d, tr)
		timed = append(timed, traced)
	}
	s.finish(p, tr)

	res := result{Attempted: warm.attempted, Failed: warm.failed, Metrics: map[string]metric{}}
	invalid := ""
	for _, q := range timed {
		res.Attempted += q.attempted
		res.Failed += q.failed
		if invalid == "" {
			invalid = q.invalid
		}
	}
	res.Correct = res.Failed == 0 && invalid == ""
	if invalid != "" {
		fmt.Fprintf(stderr, "fleetbench: run invalid: %s\n", invalid)
	}

	figures, defs := p.e2e, endToEnd
	if traced == nil {
		p.e2e["setup_s"] = median(setups)
		p.e2e["peak_rss_mb"] = peakRSSMB()
		p.e2e["success_rate"] = 1 - float64(res.Failed)/float64(res.Attempted)
	} else {
		figures, defs = traced.layer, perLayer
		for k, v := range p.layer {
			traced.layer[k] = v
		}
		for k, v := range phases {
			traced.layer[k] = median(v)
		}
		traced.layer["setup.first_s"] = setups[0]
		traced.layer["trace.overhead_ms"] = traced.e2e["op_p50_ms"] - p.e2e["op_p50_ms"]
		for k, v := range traced.layer {
			if math.IsNaN(v) {
				// A layer the pass never reached (no samples) has no figure.
				fmt.Fprintf(stderr, "fleetbench: %s: no samples\n", k)
				delete(traced.layer, k)
			}
		}
		path, err := tr.write(*out, *name, *seed, traced.layer)
		if err != nil {
			fmt.Fprintf(stderr, "fleetbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "fleetbench: trace written to %s\n", path)
	}
	for _, m := range defs {
		v, ok := figures[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "fleetbench: metric %s has no usable value (%v)\n", m.name, v)
			return 1
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}

	report(stdout, *name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "fleetbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report prints the metrics as a table ahead of the JSON line.
func report(w io.Writer, name string, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# %s: %d attempted, %d failed, correct=%v\n", name, res.Attempted, res.Failed, res.Correct)
	for _, k := range keys {
		fmt.Fprintf(w, "# %-30s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// describe logs a latency series as its median and the highest percentile
// with at least ten samples beyond it, with the sample count.
func describe(name string, xs []float64) {
	line := fmt.Sprintf("fleetbench: %s: n=%d p50=%.4f", name, len(xs), median(xs))
	if q := tailPercentile(len(xs)); q > 50 {
		line += fmt.Sprintf(" p%v=%.4f", q, percentile(xs, q))
	}
	fmt.Fprintln(os.Stderr, line)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var errTimeout = errors.New("timed out")

// waitFor polls cond every millisecond until it holds or limit passes.
func waitFor(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return errTimeout
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
