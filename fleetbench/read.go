package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"domainnet/internal/datagen"
	"domainnet/internal/eval"
	"domainnet/internal/rank"
	"domainnet/internal/serve"
)

// readRate is serve_read's offered load in reads per second.
const readRate = 2000

// readSUT serves the SB lake from the fleet and reads it through the router.
type readSUT struct {
	f    *fleet
	seed int64
	// precision is the last pass's routed precision at |H|; -1 before any.
	precision float64
}

func startRead(seed int64) (sut, map[string]float64, error) {
	f, layer, err := startFleet(seed)
	if err != nil {
		return nil, nil, err
	}
	return &readSUT{f: f, seed: seed, precision: -1}, layer, nil
}

func (s *readSUT) measure(d time.Duration, tr *tracer) *pass {
	p := newPass()
	mix := newReadMix(s.seed, s.f.vocab)
	var ops []op
	for _, at := range poissonSchedule(s.seed, readRate, d) {
		ops = append(ops, mix.next(at))
	}
	out, cpu, ws := s.f.run(ops, tr)
	rs := s.f.readStats(p, ops, out, tr, ws)
	p.e2e["op_p50_ms"] = median(rs.lat)
	p.e2e["op_cpu_ms"] = ms(cpu) / float64(rs.completed)
	s.f.checkSamples(p, out, ops, true)

	// The routed top-|H| against SB's planted homographs: the paper's 69%.
	h := len(s.f.sb.Homographs)
	p.attempted++
	if ranking, err := s.f.topK(s.f.routerURL, h); err != nil {
		p.fail("serve_read: routed /topk?k=%d: %v", h, err)
	} else {
		s.precision = eval.AtK(ranking, s.f.sb.HomographSet(), h).Precision
		p.e2e["precision"] = s.precision
	}
	return p
}

// finish tears the fleet down, then checks the routed precision at |H|
// against the offline detector's on a scratch build of the same lake.
func (s *readSUT) finish(p *pass, tr *tracer) {
	if err := s.f.close(); err != nil {
		p.attempted++
		p.fail("serve_read: teardown: %v", err)
	}
	if s.precision < 0 {
		return
	}
	sb := datagen.NewSB(s.seed)
	h := len(sb.Homographs)
	p.attempted++
	ref, err := reference(p, sb, tr)
	if err != nil {
		p.fail("serve_read: scratch build: %v", err)
		return
	}
	if want := eval.AtK(ref, sb.HomographSet(), h).Precision; s.precision != want {
		p.fail("serve_read: routed precision at |H|=%d is %.4f, the offline detector's %.4f", h, s.precision, want)
	}
}

// run drives ops with the pass's tracer installed in the fleet's wrappers,
// returning the outcomes, the process CPU the pass used and the warmer
// counters' change over it.
func (f *fleet) run(ops []op, tr *tracer) ([]outcome, time.Duration, serve.WarmStats) {
	ws0, c0 := f.warmStats(), cpuTime()
	f.trace.Store(tr)
	out := f.drive(ops, tr)
	f.trace.Store(nil)
	cpu := cpuTime() - c0
	ws1 := f.warmStats()
	return out, cpu, serve.WarmStats{
		Started:      ws1.Started - ws0.Started,
		Completed:    ws1.Completed - ws0.Completed,
		Cancelled:    ws1.Cancelled - ws0.Cancelled,
		Hits:         ws1.Hits - ws0.Hits,
		Misses:       ws1.Misses - ws0.Misses,
		Incremental:  ws1.Incremental - ws0.Incremental,
		FullFallback: ws1.FullFallback - ws0.FullFallback,
	}
}

// readFigures summarizes the reads of one pass.
type readFigures struct {
	lat       []float64 // ms from scheduled send, +Inf for failures
	completed int
}

// readStats counts every op of the pass, fails the ones that went wrong,
// checks the generator kept to its schedule, and fills the per-layer
// metrics of the read path when the pass was traced.
func (f *fleet) readStats(p *pass, ops []op, out []outcome, tr *tracer, ws serve.WarmStats) readFigures {
	var rf readFigures
	var late []float64
	var topk, n304, replica, reads int
	for i, o := range out {
		p.attempted++
		late = append(late, o.lateMS())
		if !o.ok {
			p.fail("%s: HTTP %d", opNames[ops[i].kind], o.status)
		}
		if !ops[i].kind.read() {
			continue
		}
		reads++
		rf.lat = append(rf.lat, o.latencyMS())
		if o.ok {
			rf.completed++
		}
		if o.backend != "" && o.backend != f.leaderURL {
			replica++
		}
		if ops[i].kind == opTopK {
			topk++
			if o.status == http.StatusNotModified {
				n304++
			}
		}
	}
	if rf.completed == 0 {
		rf.completed = 1 // keeps per-read ratios finite; the failures are counted above
	}
	describe("read ms", rf.lat)
	describe("generator lateness ms", late)
	if lateP99 := percentile(late, 99); lateP99 > ms(genLateLimit) {
		p.invalid = fmt.Sprintf("generator p99 lateness %.1f ms exceeds %v", lateP99, genLateLimit)
	}
	if tr == nil {
		return rf
	}
	tr.count("ops", float64(len(out)))
	tr.count("ops_failed", float64(p.failed))
	tr.count("reads", float64(reads))
	tr.count("topk_reads", float64(topk))
	tr.count("topk_304", float64(n304))
	tr.count("replica_reads", float64(replica))
	tr.count("warm_started", float64(ws.Started))
	tr.count("warm_completed", float64(ws.Completed))
	tr.count("warm_cancelled", float64(ws.Cancelled))
	tr.count("warm_hits", float64(ws.Hits))
	tr.count("warm_misses", float64(ws.Misses))
	tr.count("warm_incremental", float64(ws.Incremental))
	tr.count("warm_full_fallback", float64(ws.FullFallback))
	p.layer["gen.late_p99_ms"] = percentile(late, 99)
	p.layer["client.read_p50_ms"] = median(rf.lat)
	p.layer["client.read_p99_ms"] = percentile(rf.lat, 99)
	p.layer["serve.topk_304_share"] = float64(n304) / float64(max(topk, 1))
	p.layer["router.replica_share"] = float64(replica) / float64(max(reads, 1))
	if ws.Hits+ws.Misses > 0 {
		p.layer["serve.warm_hit_share"] = float64(ws.Hits) / float64(ws.Hits+ws.Misses)
		p.layer["serve.cold_read_share"] = float64(ws.Misses) / float64(ws.Hits+ws.Misses)
	}
	backends := []string{"follower.topk", "follower.score", "leader.topk", "leader.score"}
	routers := tr.named("router.topk", "router.score")
	rself := selfTimesMS(routers, tr.named(backends...))
	p.layer["router.self_p50_ms"] = median(rself)
	p.layer["router.self_p99_ms"] = percentile(rself, 99)
	topkMS := durationsMS(tr.named("follower.topk", "leader.topk"))
	p.layer["serve.topk_p50_ms"] = median(topkMS)
	p.layer["serve.topk_p99_ms"] = percentile(topkMS, 99)
	scoreMS := durationsMS(tr.named("follower.score", "leader.score"))
	p.layer["serve.score_p50_ms"] = median(scoreMS)
	p.layer["serve.score_p99_ms"] = percentile(scoreMS, 99)
	clientSpans := tr.named("client.topk", "client.score")
	transport := selfTimesMS(clientSpans, routers)
	p.layer["net.transport_ms"] = median(transport)

	// Attribution: of the median read latency, the share the transport,
	// router-self and backend spans account for. Their per-request sum is
	// the client round trip; the rest is time spent waiting to be sent.
	var attributed []float64
	for _, c := range clientSpans {
		attributed = append(attributed, ms(c.end.Sub(c.start)))
	}
	p.layer["trace.attributed_share"] = median(attributed) / median(rf.lat)
	return rf
}

// checkSamples compares the sampled routed read answers with the leader's
// answer to the same query, wherever the leader still serves the version
// the sample was answered at. With exact set the bodies must be
// byte-identical. Without it they must agree up to the summation tolerance
// of the delta scoring path (see sameRanking): a replica whose warm took
// the incremental path while the leader's recomputed in full, or the
// reverse, holds scores that differ in their last bits.
func (f *fleet) checkSamples(p *pass, out []outcome, ops []op, exact bool) {
	compared := 0
	for i, o := range out {
		if o.body == nil {
			continue
		}
		q := ops[i]
		path := "/topk?k=" + strconv.Itoa(q.k)
		if q.kind == opScore {
			path = "/score?value=" + url.QueryEscape(q.value)
		}
		body, version, err := f.get(f.leaderURL + path)
		if err != nil {
			p.attempted++
			p.fail("leader %s: %v", path, err)
			continue
		}
		if version != o.version {
			continue
		}
		p.attempted++
		compared++
		if exact || q.kind == opScore {
			if bytes.Equal(body, o.body) {
				continue
			}
			if !exact && sameScore(body, o.body) {
				continue
			}
			p.fail("routed %s at version %d differs from the leader's answer", path, version)
			continue
		}
		leader, err1 := parseTopK(body)
		routed, err2 := parseTopK(o.body)
		if err := errors.Join(err1, err2); err != nil {
			p.fail("routed %s at version %d: %v", path, version, err)
		} else if err := sameRanking(routed, leader); err != nil {
			p.fail("routed %s at version %d differs from the leader's answer: %v", path, version, err)
		}
	}
	fmt.Fprintf(os.Stderr, "fleetbench: %d sampled routed answers match the leader's\n", compared)
}

// sameScore reports whether two /score bodies name the same value with
// scores within the summation tolerance.
func sameScore(a, b []byte) bool {
	var x, y struct {
		Value string
		Score float64
		Found bool
	}
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	return x.Value == y.Value && x.Found == y.Found && withinTol(x.Score, y.Score)
}

// get fetches url and returns the body and the served version.
func (f *fleet) get(url string) ([]byte, uint64, error) {
	resp, err := f.client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)
	}
	v, err := strconv.ParseUint(resp.Header.Get(serve.VersionHeader), 10, 64)
	return body, v, err
}

// topK fetches base's /topk?k=.
func (f *fleet) topK(base string, k int) ([]rank.Scored, error) {
	body, _, err := f.get(base + "/topk?k=" + strconv.Itoa(k))
	if err != nil {
		return nil, err
	}
	return parseTopK(body)
}

// parseTopK decodes a /topk body into its ranking.
func parseTopK(body []byte) ([]rank.Scored, error) {
	var resp struct{ Results []rank.Scored }
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}
