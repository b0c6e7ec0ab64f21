package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/lake"
	"domainnet/internal/obs"
	"domainnet/internal/rank"
	"domainnet/internal/repl"
	"domainnet/internal/router"
	"domainnet/internal/serve"
	"domainnet/internal/wal"
)

// scratchRoot holds the fleet's write-ahead logs, inside the checkout the
// benchmark runs from.
const scratchRoot = ".bench_build/fleetbench-scratch"

// fleetConfig is the detector configuration of every server in the fleet:
// exact betweenness over the SB lake, one worker per CPU. Replicas must
// score alike, since a follower returns the leader's bytes only when both
// sum in the same order.
var fleetConfig = domainnet.Config{Measure: domainnet.BetweennessExact, Workers: runtime.NumCPU()}

// warmMeasures turns the background warmer on for the leader and the
// follower, as in production.
var warmMeasures = []domainnet.Measure{domainnet.BetweennessExact}

// fleet is a leader (snapshot-free, WAL with fsync), one follower and a
// router, each behind its own loopback HTTP server in this process.
type fleet struct {
	sb       *datagen.SB
	vocab    []string // the lake's candidate values, sorted
	churn    []string // the values of one small component, sorted
	shapes   []shape  // the lake's tables' shapes, in lake order
	walDir   string
	wlog     *wal.Log
	leader   *serve.Server
	follower *repl.Follower
	rt       *router.Router

	leaderURL, followerURL, routerURL string

	servers []*http.Server
	cancel  context.CancelFunc
	running sync.WaitGroup
	client  *http.Client

	// trace is the tracer of the pass in progress; nil while untraced, so
	// the wrappers below cost one atomic load.
	trace atomic.Pointer[tracer]
	// mutReq is the request ID of the mutation the leader is handling, so
	// the WAL commit it triggers joins that request's spans.
	mutReq atomic.Value
}

// startFleet brings the fleet up and returns it once the leader and the
// follower are warm and the router has admitted the follower. The returned
// map holds the set-up phases in ms and the bootstrap's byte counts.
func startFleet(seed int64) (*fleet, map[string]float64, error) {
	layer := map[string]float64{}
	f := &fleet{}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.mutReq.Store("")
	ok := false
	defer func() {
		if !ok {
			f.close() //nolint:errcheck // the set-up error is the one to report
		}
	}()

	t0 := time.Now()
	// One process hosts three daemons and the load generator. Giving it a
	// P per daemon core lets the OS interleave them as it would separate
	// processes. With one P per core, a write's response queued behind the
	// leader's and the follower's warm goroutines, and serve_write's write
	// p50 read 6.3-6.8 ms against 4.1-4.5 ms.
	runtime.GOMAXPROCS(3 * runtime.NumCPU())
	f.sb = datagen.NewSB(seed)
	layer["datagen.lake_ms"] = ms(time.Since(t0))
	// Before the leader takes the lake over.
	f.vocab = lakeVocab(f.sb.Lake)
	f.churn = churnPool(f.sb.Lake)
	for _, t := range f.sb.Lake.Tables() {
		f.shapes = append(f.shapes, shape{t.NumColumns(), t.NumRows()})
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, nil, err
	}
	var err error
	if f.walDir, err = os.MkdirTemp(scratchRoot, "wal-"); err != nil {
		return nil, nil, err
	}
	if f.wlog, err = wal.Open(f.walDir, wal.Options{}); err != nil {
		return nil, nil, err
	}
	ld := repl.NewLeader(f.wlog)
	f.leader = serve.NewWithOptions(f.sb.Lake, fleetConfig, serve.Options{
		OnCommit:     f.commitHook(ld.OnCommit),
		WarmMeasures: warmMeasures,
		Tracer:       &obs.Tracer{},
	})
	ld.Attach(f.leader)
	if err := waitFor(time.Minute, func() bool { return f.leader.WarmStats().Completed >= 1 }); err != nil {
		return nil, nil, fmt.Errorf("leader warm: %w", err)
	}
	layer["serve.leader_ready_ms"] = ms(time.Since(t0))
	if f.leaderURL, err = f.listen(f.wrap("leader", f.leader)); err != nil {
		return nil, nil, err
	}

	t1 := time.Now()
	f.follower = &repl.Follower{
		Leader:       f.leaderURL,
		Config:       fleetConfig,
		WarmMeasures: warmMeasures,
		Client:       &http.Client{Timeout: repl.DefaultPollTimeout + 15*time.Second},
	}
	if err := f.follower.Bootstrap(ctx); err != nil {
		return nil, nil, fmt.Errorf("follower bootstrap: %w", err)
	}
	layer["repl.bootstrap_ms"] = ms(time.Since(t1))
	bs := f.follower.BootstrapStats()
	layer["repl.wire_bytes"] = float64(bs.WireBytes)
	layer["persist.snapshot_bytes"] = float64(bs.RawBytes)
	t2 := time.Now()
	if err := waitFor(time.Minute, func() bool { return f.follower.Server().WarmStats().Completed >= 1 }); err != nil {
		return nil, nil, fmt.Errorf("follower warm: %w", err)
	}
	layer["serve.follower_ready_ms"] = ms(time.Since(t2))
	if f.followerURL, err = f.listen(f.wrap("follower", f.follower)); err != nil {
		return nil, nil, err
	}
	f.running.Add(1)
	go func() {
		defer f.running.Done()
		f.follower.Run(ctx) //nolint:errcheck // returns ctx.Err() at teardown
	}()

	t3 := time.Now()
	if f.rt, err = router.New(router.Options{Leader: f.leaderURL, Replicas: []string{f.followerURL}}); err != nil {
		return nil, nil, err
	}
	f.rt.CheckNow(ctx)
	if err := waitFor(time.Minute, func() bool {
		if f.rt.Status().Admitted == 1 {
			return true
		}
		f.rt.CheckNow(ctx)
		return false
	}); err != nil {
		return nil, nil, fmt.Errorf("router admission: %w", err)
	}
	layer["router.admit_ms"] = ms(time.Since(t3))
	f.running.Add(1)
	go func() {
		defer f.running.Done()
		f.rt.Run(ctx) //nolint:errcheck // returns ctx.Err() at teardown
	}()
	if f.routerURL, err = f.listen(f.wrap("router", f.rt)); err != nil {
		return nil, nil, err
	}

	// At most two client connections: the load comes from two goroutines.
	f.client = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
	ok = true
	return f, layer, nil
}

// reference is the ranking of a scratch build of sb's lake under the
// fleet's configuration, which the end-of-run checks hold the fleet's
// answers against. It runs what the leader runs on a cold start; with a
// tracer, its graph build, scoring and ranking go into p.layer.
func reference(p *pass, sb *datagen.SB, tr *tracer) ([]rank.Scored, error) {
	r := detect(sb.Lake.Attributes(), bipartite.Options{Workers: fleetConfig.Workers}, fleetConfig, tr, "reference")
	for k, v := range r.layer {
		p.layer[k] = v
	}
	return r.ranking, r.err
}

// shape is a table's column and row count.
type shape struct{ cols, rows int }

// listen serves h on a fresh loopback port and returns its base URL.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, srv)
	f.running.Add(1)
	go func() {
		defer f.running.Done()
		srv.Serve(ln) //nolint:errcheck // ErrServerClosed at teardown
	}()
	return "http://" + ln.Addr().String(), nil
}

// wrap records a span named layer + "." + the first path segment around
// every request while a traced pass runs. On the leader it also publishes
// the mutation's request ID for commitHook.
func (f *fleet) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := f.trace.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		req := r.Header.Get(obs.TraceHeader)
		if !strings.HasPrefix(req, loadTracePrefix) {
			// Not a request of the load: the router's health checks carry
			// no ID, and the writer's version probes carry one the router
			// minted. No span.
			h.ServeHTTP(w, r)
			return
		}
		seg, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
		if layer == "leader" && seg == "tables" {
			f.mutReq.Store(req)
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.add(req, layer+"."+seg, start, time.Now())
	})
}

// commitHook times the leader's write-ahead hook (WAL append + fsync, then
// the change-feed broadcast) while a traced pass runs.
func (f *fleet) commitHook(commit func(serve.Mutation) error) func(serve.Mutation) error {
	return func(m serve.Mutation) error {
		tr := f.trace.Load()
		if tr == nil {
			return commit(m)
		}
		start := time.Now()
		err := commit(m)
		tr.add(f.mutReq.Load().(string), "wal.commit", start, time.Now())
		return err
	}
}

// walBytes is the total size of the WAL's segment files.
func (f *fleet) walBytes() int64 {
	var n int64
	entries, _ := os.ReadDir(f.walDir)
	for _, e := range entries {
		if fi, err := os.Stat(filepath.Join(f.walDir, e.Name())); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// warmStats sums the leader's and the current follower server's warmer
// counters.
func (f *fleet) warmStats() serve.WarmStats {
	a := f.leader.WarmStats()
	if s := f.follower.Server(); s != nil {
		b := s.WarmStats()
		a.Started += b.Started
		a.Completed += b.Completed
		a.Cancelled += b.Cancelled
		a.Hits += b.Hits
		a.Misses += b.Misses
		a.Incremental += b.Incremental
		a.FullFallback += b.FullFallback
	}
	return a
}

// close stops every goroutine the fleet started and removes its WAL.
func (f *fleet) close() error {
	f.cancel()
	var errs []error
	for _, srv := range f.servers {
		errs = append(errs, srv.Close())
	}
	f.running.Wait()
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.leader != nil {
		f.leader.Close()
	}
	if f.follower != nil {
		if s := f.follower.Server(); s != nil {
			s.Close()
		}
	}
	if f.wlog != nil {
		errs = append(errs, f.wlog.Close())
	}
	if f.walDir != "" {
		errs = append(errs, os.RemoveAll(f.walDir))
	}
	return errors.Join(errs...)
}

// lakeVocab lists the lake's candidate values, sorted: those occurring more
// than once lake-wide, the ones the graph keeps (paper §5). Every read and
// churn value is one the detector scores, so no read is answered without the
// ranking it asks about.
func lakeVocab(l *lake.Lake) []string {
	cells := map[string]int{}
	for _, a := range l.Attributes() {
		for i, v := range a.Values {
			if a.Freqs != nil {
				cells[v] += a.Freqs[i]
			} else {
				cells[v]++
			}
		}
	}
	var out []string
	for v, n := range cells {
		if n > 1 {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// churnPool lists the values of the largest connected component of the
// lake's graph that holds less than a tenth of its nodes. A table drawn from
// them dirties only that component, so the follower's warm rescores it
// through the delta path. Churn drawn from the whole vocabulary touches the
// giant component (four fifths of SB's nodes) and forces a full recompute
// of about a second per mutation, during which every read stalls; the
// medians of the dozen mutations a run can then afford flipped between
// modes from run to run.
func churnPool(l *lake.Lake) []string {
	g := bipartite.FromLake(l, bipartite.Options{})
	n := g.NumNodes()
	seen := make([]bool, n)
	var best []string
	for s := range n {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue := []int32{int32(s)}
		var values []string
		for k := 0; k < len(queue); k++ {
			u := queue[k]
			if g.IsValue(u) {
				values = append(values, g.Value(u))
			}
			for _, v := range g.Neighbors(u) {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		if len(queue)*10 < n && len(values) > len(best) {
			best = values
		}
	}
	sort.Strings(best)
	return best
}
