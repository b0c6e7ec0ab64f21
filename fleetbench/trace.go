package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Spans of one request share req, the ID the client sends in
// obs.TraceHeader and the router forwards to the backend.
type span struct {
	req   string
	name  string
	start time.Time
	end   time.Time
}

func (s span) interval() interval { return interval{s.start, s.end} }

// tracer keeps spans and counters in memory for one traced pass; write puts
// them in a file when the run ends. A nil *tracer records nothing.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: map[string]float64{}}
}

func (t *tracer) add(req, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{req, name, start, end})
	t.mu.Unlock()
}

func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// named returns the spans whose name is one of names, in recording order.
func (t *tracer) named(names ...string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		for _, n := range names {
			if s.name == n {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// byReq groups spans by request ID, dropping spans without one.
func byReq(spans []span) map[string][]interval {
	out := map[string][]interval{}
	for _, s := range spans {
		if s.req != "" {
			out[s.req] = append(out[s.req], s.interval())
		}
	}
	return out
}

// durationsMS lists the spans' durations in milliseconds.
func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.end.Sub(s.start))
	}
	return out
}

// selfTimesMS is, for every parent span, its self time with the
// same-request child spans subtracted, in milliseconds.
func selfTimesMS(parents, children []span) []float64 {
	kids := byReq(children)
	out := make([]float64, 0, len(parents))
	for _, p := range parents {
		out = append(out, ms(selfTime(p.interval(), kids[p.req])))
	}
	return out
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []traceSpan        `json:"spans"`
	Counters map[string]float64 `json:"counters"`
	PerLayer map[string]float64 `json:"per_layer"`
}

type traceSpan struct {
	Req     string `json:"req,omitempty"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// write stores the spans, counters and the per-layer table computed from
// them as JSON under dir, one file per run, and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64, perLayer map[string]float64) (string, error) {
	t.mu.Lock()
	f := traceFile{Workload: workload, Seed: seed, Counters: t.counters, PerLayer: perLayer}
	for _, s := range t.spans {
		f.Spans = append(f.Spans, traceSpan{s.req, s.name,
			s.start.Sub(t.t0).Microseconds(), s.end.Sub(s.start).Microseconds()})
	}
	t.mu.Unlock()
	sort.SliceStable(f.Spans, func(i, j int) bool { return f.Spans[i].StartUS < f.Spans[j].StartUS })
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+"-seed"+itoa(seed)+"-"+itoa(time.Now().UnixNano())+".json")
	buf, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }
