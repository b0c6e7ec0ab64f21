package main

import (
	"bytes"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"domainnet/internal/datagen"
	"domainnet/internal/eval"
	"domainnet/internal/table"
)

const (
	// writeGap is serve_write's mean gap between mutations, jittered by a
	// quarter either way rather than drawn Poisson: a publish cancels the
	// warm in flight, the next snapshot then has no computed predecessor to
	// take deltas from and recomputes in full, and the next mutation cancels
	// that. Poisson gaps at 4/s set off such a chain in one run of five and
	// stalled reads for 8.5 s. A delta warm takes about 5 ms, far inside
	// the shortest gap (94 ms). At this rate a run holds about 180
	// mutations, twice as many as at 250 ms, so their median varies less.
	writeGap = 125 * time.Millisecond
	// writeReadRate is the offered read rate beside the mutations.
	writeReadRate = 500
	// writeTail ends the mutation schedule this long before the window, so
	// the last mutations become visible while the reads still run.
	writeTail = 2 * time.Second
	// visibleLimit bounds the wait for an acked version to show up.
	visibleLimit = 30 * time.Second
)

// writeSUT mutates the SB lake through the router — a table add shaped like
// the lake's tables and drawn from the lake's own vocabulary,
// alternating with removal of the oldest churn table — while reads run
// beside the mutations.
type writeSUT struct {
	f    *fleet
	seed int64
	rng  *rand.Rand
	made int      // churn tables created so far
	live []string // churn tables in the lake, oldest first
}

func startWrite(seed int64) (sut, map[string]float64, error) {
	f, layer, err := startFleet(seed)
	if err != nil {
		return nil, nil, err
	}
	return &writeSUT{f: f, seed: seed, rng: rand.New(rand.NewSource(seed))}, layer, nil
}

// mutation plans the next churn op at offset at.
func (s *writeSUT) mutation(at time.Duration) op {
	if len(s.live) > 0 {
		name := s.live[0]
		s.live = s.live[1:]
		return op{at: at, kind: opRemove, table: name}
	}
	s.made++
	name := "churn_" + strconv.Itoa(s.made)
	s.live = append(s.live, name)
	// The table takes the column and row count of the lake's own tables in
	// turn, so every run adds the same mix of shapes.
	sh := s.f.shapes[(s.made-1)%len(s.f.shapes)]
	t := table.New(name)
	for c := range sh.cols {
		vals := make([]string, sh.rows)
		for i := range vals {
			vals[i] = s.f.churn[s.rng.Intn(len(s.f.churn))]
		}
		t.AddColumn("c"+strconv.Itoa(c), vals...)
	}
	var buf bytes.Buffer
	t.WriteCSV(&buf) //nolint:errcheck // writes to memory
	return op{at: at, kind: opAdd, table: name, body: buf.Bytes()}
}

func (s *writeSUT) measure(d time.Duration, tr *tracer) *pass {
	p := newPass()
	mix := newReadMix(s.seed, s.f.vocab)
	var ops []op
	for _, at := range poissonSchedule(s.seed, writeReadRate, d) {
		ops = append(ops, mix.next(at))
	}
	for _, at := range jitteredSchedule(s.seed+1, writeGap, d-writeTail) {
		ops = append(ops, s.mutation(at))
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })

	var watch *followerWatch
	if tr != nil {
		watch = s.f.watchFollower()
	}
	wal0 := s.f.walBytes()
	out, cpu, ws := s.f.run(ops, tr)
	s.f.readStats(p, ops, out, tr, ws)
	completed := 0
	for _, o := range out {
		if o.ok {
			completed++
		}
	}
	p.e2e["op_cpu_ms"] = ms(cpu) / float64(max(completed, 1))

	var writes, visible []float64
	var acks []ack
	for i, o := range out {
		if ops[i].kind.read() {
			continue
		}
		writes = append(writes, o.latencyMS())
		if o.ok {
			acks = append(acks, ack{o.done, o.version, o.visible})
		}
	}
	for _, a := range acks {
		at, err := s.f.visibleAt(a, ops, out)
		p.attempted++
		if err != nil {
			p.fail("serve_write: version %d acked but never visible through the router: %v", a.version, err)
			visible = append(visible, inf)
			continue
		}
		visible = append(visible, ms(at.Sub(a.at)))

	}
	describe("write ms", writes)
	describe("visible ms", visible)
	p.e2e["op_p50_ms"] = median(writes)
	s.f.checkAcked(p, acks)
	s.f.checkSamples(p, out, ops, false)

	if tr != nil {
		watch.stop()
		commits := tr.named("wal.commit")
		p.layer["wal.commit_ms"] = median(durationsMS(commits))
		p.layer["serve.apply_ms"] = median(selfTimesMS(tr.named("leader.tables"), commits))
		walGrowth := s.f.walBytes() - wal0
		tr.count("wal_bytes", float64(walGrowth))
		tr.count("mutations_acked", float64(len(acks)))
		p.layer["wal.bytes_per_mutation"] = float64(walGrowth) / float64(max(len(acks), 1))
		catchup, warm := watch.delays(acks)
		p.layer["repl.visible_p50_ms"] = median(visible)
		p.layer["repl.catchup_ms"] = median(catchup)
		p.layer["serve.follower_warm_ms"] = median(warm)
		p.layer["serve.warm_cancelled_share"] = float64(ws.Cancelled) / float64(max(ws.Started, 1))
		p.layer["serve.warm_incremental_share"] = float64(ws.Incremental) / float64(max(ws.Incremental+ws.FullFallback, 1))
	}
	return p
}

// finish removes the churn tables still in the lake, then checks that the
// routed ranking equals a scratch build of the initial SB lake, up to the
// delta path's summation tolerance, and scores its precision at |H|.
func (s *writeSUT) finish(p *pass, tr *tracer) {
	defer func() {
		if err := s.f.close(); err != nil {
			p.attempted++
			p.fail("serve_write: teardown: %v", err)
		}
	}()
	if s.made == 0 {
		return
	}
	var ops []op
	for len(s.live) > 0 {
		ops = append(ops, s.mutation(0))
	}
	var acks []ack
	for i := range ops {
		var o outcome
		s.f.do(&ops[i], &o, "", "", false)
		p.attempted++
		if !o.ok {
			p.fail("serve_write: removing %s: HTTP %d", ops[i].table, o.status)
			return
		}
		acks = append(acks, ack{o.done, o.version, time.Time{}})
	}
	s.f.checkAcked(p, acks)

	p.attempted++
	got, err := s.f.topK(s.f.routerURL, 1<<30)
	if err != nil {
		p.fail("serve_write: routed ranking: %v", err)
		return
	}
	sb := datagen.NewSB(s.seed)
	h := len(sb.Homographs)
	p.e2e["precision"] = eval.AtK(got, sb.HomographSet(), h).Precision
	p.attempted++
	want, err := reference(p, sb, tr)
	if err != nil {
		p.fail("serve_write: scratch build: %v", err)
	} else if err := sameRanking(got, want); err != nil {
		p.fail("serve_write: routed ranking differs from a scratch build: %v", err)
	}
}

// ack is one acknowledged mutation: when the client got the ack, the
// version it names, and when a routed read first returned that version (zero
// if the writer's own reads did not see it in time).
type ack struct {
	at      time.Time
	version uint64
	visible time.Time
}

// visibleAt is when the first routed read completing after the ack returned
// the acked version or a later one: the writer's own read if it saw one,
// else the first such read of the pass, else the first of a probe after it.
func (f *fleet) visibleAt(a ack, ops []op, out []outcome) (time.Time, error) {
	if !a.visible.IsZero() {
		return a.visible, nil
	}
	var first time.Time
	for i, o := range out {
		if ops[i].kind.read() && o.ok && o.version >= a.version && !o.done.Before(a.at) &&
			(first.IsZero() || o.done.Before(first)) {
			first = o.done
		}
	}
	if !first.IsZero() {
		return first, nil
	}
	if at := f.awaitVersion(a.version, time.Now().Add(visibleLimit)); !at.IsZero() {
		return at, nil
	}
	return time.Time{}, errTimeout
}

// checkAcked checks that the follower reaches every acked version.
func (f *fleet) checkAcked(p *pass, acks []ack) {
	var last uint64
	for _, a := range acks {
		last = max(last, a.version)
	}
	p.attempted++
	if err := waitFor(visibleLimit, func() bool { return f.follower.Version() >= last }); err != nil {
		p.fail("serve_write: follower at version %d never reached acked version %d", f.follower.Version(), last)
	}
}

// followerWatch samples the follower's version and warm count every 200µs
// during a traced pass: when each version was applied, and when each warm
// completed.
type followerWatch struct {
	done chan struct{}
	wg   sync.WaitGroup

	applied map[uint64]time.Time // first time the follower served each version
	warmed  []time.Time          // times the warm-completion count rose
}

func (f *fleet) watchFollower() *followerWatch {
	w := &followerWatch{done: make(chan struct{}), applied: map[uint64]time.Time{}}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		var lastVer uint64
		var lastWarm int64
		for {
			select {
			case <-w.done:
				return
			default:
			}
			now := time.Now()
			if v := f.follower.Version(); v != lastVer {
				w.applied[v], lastVer = now, v
			}
			if s := f.follower.Server(); s != nil {
				if c := s.WarmStats().Completed; c != lastWarm {
					if lastWarm != 0 {
						w.warmed = append(w.warmed, now)
					}
					lastWarm = c
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return w
}

func (w *followerWatch) stop() {
	close(w.done)
	w.wg.Wait()
}

// delays returns, per ack, the follower catch-up (ack → applied; negative
// when the follower applied the burst before the ack reached the client,
// since the change feed ships a burst as soon as the WAL holds it) and the
// follower warm (applied → next warm completion).
func (w *followerWatch) delays(acks []ack) (catchup, warm []float64) {
	for _, a := range acks {
		var applied time.Time
		for v, t := range w.applied {
			if v >= a.version && (applied.IsZero() || t.Before(applied)) {
				applied = t
			}
		}
		if applied.IsZero() {
			continue
		}
		catchup = append(catchup, ms(applied.Sub(a.at)))
		for _, t := range w.warmed {
			if t.After(applied) {
				warm = append(warm, ms(t.Sub(applied)))
				break
			}
		}
	}
	return catchup, warm
}
