package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"domainnet/internal/obs"
	"domainnet/internal/router"
	"domainnet/internal/serve"
)

// clients is the number of load goroutines, each with its own connection.
const clients = 2

// genLateLimit is how late the generator may send at p99 before a pass is
// marked invalid: beyond it the offered load is not the one asked for, so
// its latencies cannot stand. Healthy runs send within half a millisecond.
const genLateLimit = 10 * time.Millisecond

type opKind int

const (
	opTopK opKind = iota
	opScore
	opAdd
	opRemove
)

var opNames = [...]string{"topk", "score", "add", "remove"}

func (k opKind) read() bool { return k == opTopK || k == opScore }

// op is one scheduled request of an open-loop pass.
type op struct {
	at    time.Duration // send offset from the pass start
	kind  opKind
	k     int    // opTopK
	reval bool   // opTopK: present the last ETag seen for k
	value string // opScore
	table string // opAdd, opRemove
	body  []byte // opAdd: the table as CSV
}

// outcome is what happened to one op.
type outcome struct {
	// sched is when the op was due, picked when a client took it up (later
	// than sched when every client of its lane was busy), sent when its
	// request started and done when its response was read.
	sched, picked, sent, done time.Time

	ok      bool
	status  int
	version uint64 // X-Domainnet-Version, or the acked version of a mutation
	backend string // X-Domainnet-Backend
	etag    string // ETag of a /topk answer
	body    []byte // kept for sampled reads only
	// visible, for a mutation, is when a routed read first returned its
	// acked version or a later one; zero if not seen before the next
	// mutation was due.
	visible time.Time
}

// lateMS is how late the generator itself sent the op: from when it was due,
// or from when a client took it up if that was later, until it was sent.
// Waiting for a busy client is not the generator's lateness; it counts in
// the op's latency instead.
func (o *outcome) lateMS() float64 {
	from := o.sched
	if o.picked.After(from) {
		from = o.picked
	}
	return ms(o.sent.Sub(from))
}

func (o *outcome) latencyMS() float64 {
	if !o.ok {
		return inf // a failed op misses every latency limit
	}
	return ms(o.done.Sub(o.sched))
}

var inf = math.Inf(1)

// loadTracePrefix starts the trace ID of every request of the load, so the
// span wrappers can tell them from IDs the router mints for other requests.
const loadTracePrefix = "load-"

// sampleEvery keeps every n-th routed read's body for the leader
// comparison.
const sampleEvery = 97

// readMix draws the read ops: 70% /topk with k in {10, 55, 200}, a third of
// them revalidating with their last ETag; 30% /score with values drawn with
// Zipf skew from vocab.
type readMix struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	vocab []string
}

func newReadMix(seed int64, vocab []string) *readMix {
	rng := rand.New(rand.NewSource(seed))
	v := append([]string(nil), vocab...)
	rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	return &readMix{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(v)-1)), vocab: v}
}

var topKs = [...]int{10, 55, 200}

func (m *readMix) next(at time.Duration) op {
	if m.rng.Float64() < 0.7 {
		return op{at: at, kind: opTopK, k: topKs[m.rng.Intn(len(topKs))], reval: m.rng.Intn(3) == 0}
	}
	return op{at: at, kind: opScore, value: m.vocab[m.zipf.Uint64()]}
}

// drive runs ops open loop against the router from two client goroutines.
// Each client takes the next op of its lane, sleeps until the op is due and
// sends it; an op that falls due while its lane's clients are all busy waits
// for one, and since every op is timed from when it was due, that queueing
// counts. Reads share both clients; with mutations in ops, one client takes
// the mutations and the other the reads, so an ack never waits behind a
// stalled read. With tr set, each request carries a trace ID and its round
// trip becomes a span.
func (f *fleet) drive(ops []op, tr *tracer) []outcome {
	// A lane is a list of op indices and the cursor its clients share.
	type lane struct {
		ops  []int
		next atomic.Int64
	}
	reads, writes := &lane{}, &lane{}
	for i, o := range ops {
		if o.kind.read() {
			reads.ops = append(reads.ops, i)
		} else {
			writes.ops = append(writes.ops, i)
		}
	}
	clientLanes := [clients]*lane{reads, reads}
	if len(writes.ops) > 0 {
		clientLanes[1] = writes
	}

	out := make([]outcome, len(ops))
	start := time.Now().Add(5 * time.Millisecond)
	var etagMu sync.Mutex
	etags := map[int]string{}
	var wg sync.WaitGroup
	for _, ln := range clientLanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(ln.next.Add(1)) - 1
				if j >= len(ln.ops) {
					return
				}
				i := ln.ops[j]
				o, r := &ops[i], &out[i]
				r.sched, r.picked = start.Add(o.at), time.Now()
				sleepUntil(r.sched)
				var etag string
				if o.reval {
					etagMu.Lock()
					etag = etags[o.k]
					etagMu.Unlock()
				}
				id := ""
				if tr != nil {
					id = loadTracePrefix + strconv.Itoa(i)
				}
				f.do(o, r, etag, id, i%sampleEvery == 0)
				if tr != nil {
					tr.add(id, "client."+opNames[o.kind], r.sent, r.done)
				}
				if !o.kind.read() && r.ok {
					// Until the lane's next mutation is due, read through
					// the router for the acked version.
					until := r.done.Add(visibleLimit)
					if j+1 < len(ln.ops) {
						until = start.Add(ops[ln.ops[j+1]].at)
					}
					r.visible = f.awaitVersion(r.version, until)
				}
				if o.kind == opTopK && r.ok && r.status == http.StatusOK {
					etagMu.Lock()
					etags[o.k] = r.etag
					etagMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// awaitVersion reads /topk through the router until an answer carries
// version v or a later one, and returns when that answer arrived; the zero
// time if none did by until.
func (f *fleet) awaitVersion(v uint64, until time.Time) time.Time {
	for time.Now().Before(until) {
		if _, got, err := f.get(f.routerURL + "/topk?k=10"); err == nil && got >= v {
			return time.Now()
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
	return time.Time{}
}

// do sends one op through the router and records its outcome.
func (f *fleet) do(o *op, r *outcome, etag, traceID string, sample bool) {
	var req *http.Request
	var err error
	switch o.kind {
	case opTopK:
		req, err = http.NewRequest(http.MethodGet, f.routerURL+"/topk?k="+strconv.Itoa(o.k), nil)
		if err == nil && etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
	case opScore:
		req, err = http.NewRequest(http.MethodGet, f.routerURL+"/score?value="+url.QueryEscape(o.value), nil)
	case opAdd:
		req, err = http.NewRequest(http.MethodPost, f.routerURL+"/tables/"+o.table, bytes.NewReader(o.body))
	case opRemove:
		req, err = http.NewRequest(http.MethodDelete, f.routerURL+"/tables/"+o.table, nil)
	}
	if traceID != "" && err == nil {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	r.sent = time.Now()
	var resp *http.Response
	if err == nil {
		resp, err = f.client.Do(req)
	}
	if err != nil {
		r.done = time.Now()
		fmt.Fprintf(os.Stderr, "fleetbench: %s: %v\n", opNames[o.kind], err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status = resp.StatusCode
	r.backend = resp.Header.Get(router.BackendHeader)
	r.version, _ = strconv.ParseUint(resp.Header.Get(serve.VersionHeader), 10, 64)
	if o.kind == opTopK {
		r.etag = resp.Header.Get("ETag")
	}
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "fleetbench: %s: reading body: %v\n", opNames[o.kind], err)
	case o.kind == opAdd && r.status == http.StatusCreated, o.kind == opRemove && r.status == http.StatusOK:
		var ack struct{ Version uint64 }
		if err := json.Unmarshal(body, &ack); err != nil || ack.Version == 0 {
			fmt.Fprintf(os.Stderr, "fleetbench: %s %s: bad ack %q\n", opNames[o.kind], o.table, body)
			return
		}
		r.version, r.ok = ack.Version, true
	case o.kind.read() && (r.status == http.StatusOK || r.status == http.StatusNotModified && etag != ""):
		r.ok = r.version > 0
		if sample && r.status == http.StatusOK {
			r.body = body
		}
	default:
		fmt.Fprintf(os.Stderr, "fleetbench: %s: HTTP %d: %.200s\n", opNames[o.kind], r.status, body)
	}
}

// sleepUntil blocks in nanosleep until t, on an OS thread whose timer slack
// is set to 1µs, so the client wakes within microseconds of when its op is
// due. The runtime's own timers round waits below a millisecond up to one,
// which at 2000 sends a second would make the generator late by about a
// whole gap.
func sleepUntil(t time.Time) {
	if time.Until(t) <= 0 {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) //nolint:errcheck // best effort
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR just loops
	}
}
