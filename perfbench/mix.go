package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/concrete"
	"repro/internal/rsg"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/verdict"
)

// The shaped-mix request mix and shape.
const (
	mixClients   = 2    // closed-loop clients, one per CPU of the reference machine
	mixWarmShare = 0.60 // exact repeat of a cold-analyzed version
	mixEditShare = 0.30 // base plus 1..mixMaxEdit tail statements
	mixMaxEdit   = 3
	mixColdPool  = 2000  // distinct random programs per client
	mixBatch     = 10000 // requests whose wall time is total_s
	mixSetups    = 3     // set-ups per run; setup_s is their median
)

// mixBases are the programs set-up cold-analyzes at L1.
var mixBases = []string{"matvec", "barneshut", "matmat", "slist", "dlist", "btree"}

// version is one program text the service has analyzed cold.
type version struct {
	name, src, digest string
}

// mixServer is one booted shaped: a fresh store behind a loopback
// listener.
type mixServer struct {
	st     *store.Store
	path   string
	srv    *http.Server
	served chan struct{}
	cl     *service.Client
	http   *http.Client
	openD  time.Duration
}

func bootMix(dir string, root *spanHandle) (*mixServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &mixServer{path: filepath.Join(dir, "shaped.rsgstore"), served: make(chan struct{})}
	sp := root.child("store.Open")
	start := time.Now()
	st, err := store.Open(m.path)
	m.openD = time.Since(start)
	sp.end()
	if err != nil {
		return nil, err
	}
	m.st = st
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	m.srv = &http.Server{Handler: service.New(service.Config{Store: st})}
	go func() {
		defer close(m.served)
		m.srv.Serve(ln)
	}()
	m.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: mixClients}, Timeout: time.Minute}
	m.cl = &service.Client{BaseURL: "http://" + ln.Addr().String(), HTTP: m.http}
	return m, nil
}

// stop shuts the service down, waits for it, and closes the store.
func (m *mixServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m.srv.Shutdown(ctx)
	<-m.served
	m.http.CloseIdleConnections()
	m.st.Close()
}

// mixRecord is one reply kept for the post-loop checks.
type mixRecord struct {
	class  string
	name   string
	src    string
	rtt    time.Duration
	engine time.Duration
	traced bool
	done   time.Time
	resp   *service.AnalyzeResponse
}

// mixClient is one closed-loop client. Its request stream depends only
// on the seed and its own replies, never on the other client's timing.
type mixClient struct {
	id    int
	rng   *rand.Rand
	colds []string
	sent  int
	owned []version // this client's cold-analyzed random programs
}

type mixRun struct {
	srv     *mixServer
	bases   []version
	edits   [][]string // edits[b][k-1] is base b plus k tail statements
	clients []*mixClient
	out     *outcome

	records []mixRecord // every reply of the loop, in completion order

	mu       sync.Mutex        // guards out, editDig and coldSeen
	editDig  map[string]string // "name/k" -> digest of the first reply
	coldSeen []mixRecord
}

func (r *mixRun) fail(format string, args ...any) {
	r.mu.Lock()
	r.out.fail(format, args...)
	r.mu.Unlock()
}

// next picks a client's next request.
func (r *mixRun) next(c *mixClient) (class, name, src string, k int, want string) {
	x := c.rng.Float64()
	switch {
	case x < mixWarmShare:
		v := r.bases[c.rng.Intn(len(r.bases))]
		if len(c.owned) > 0 && c.rng.Intn(2) == 0 {
			v = c.owned[c.rng.Intn(len(c.owned))]
		}
		return "warm", v.name, v.src, 0, v.digest
	case x < mixWarmShare+mixEditShare || c.sent >= len(c.colds):
		b := c.rng.Intn(len(r.bases))
		k = 1 + c.rng.Intn(mixMaxEdit)
		return "edit", r.bases[b].name, r.edits[b][k-1], k, ""
	}
	src = c.colds[c.sent]
	c.sent++
	return "cold", fmt.Sprintf("c%d-cold-%d", c.id, c.sent), src, 0, ""
}

// request sends one request and checks what can be checked at once.
func (r *mixRun) request(c *mixClient, tr *tracer) mixRecord {
	class, name, src, k, want := r.next(c)
	root := tr.begin("op.request")
	sp := root.child("http.analyze")
	start := time.Now()
	resp, err := r.srv.cl.Analyze(service.AnalyzeRequest{Name: name, Source: src, Level: 1})
	rtt := time.Since(start)
	sp.end()
	root.end()
	rec := mixRecord{class: class, name: name, src: src, rtt: rtt, traced: root != nil, done: start.Add(rtt), resp: resp}
	if err != nil {
		r.fail("%s %s: %v", class, name, err)
		return rec
	}
	rec.engine = time.Duration(resp.DurationUS) * time.Microsecond
	if resp.Outcome != "converged" {
		r.fail("%s %s: outcome %s", class, name, resp.Outcome)
		return rec
	}
	switch class {
	case "warm":
		if resp.ResultDigest != want || resp.Visits != 0 {
			r.fail("warm %s: digest %s after %d visits, want %s from its cold run", name, resp.ResultDigest, resp.Visits, want)
		}
	case "edit":
		if resp.Visits == 0 || resp.ReusedStatements == 0 {
			r.fail("edit %s+%d: %d visits, %d reused: not an edit-delta run", name, k, resp.Visits, resp.ReusedStatements)
		}
		key := fmt.Sprintf("%s/%d", name, k)
		r.mu.Lock()
		if d, ok := r.editDig[key]; !ok {
			r.editDig[key] = resp.ResultDigest
		} else if d != resp.ResultDigest {
			r.out.fail("edit %s: digest %s, earlier %s", key, resp.ResultDigest, d)
		}
		r.mu.Unlock()
	case "cold":
		if resp.ReusedStatements != 0 {
			r.fail("cold %s: %d statements reused", name, resp.ReusedStatements)
		}
		c.owned = append(c.owned, version{name, src, resp.ResultDigest})
		r.mu.Lock()
		r.coldSeen = append(r.coldSeen, rec)
		r.mu.Unlock()
	}
	return rec
}

// loop runs the clients closed-loop until both the time and mixBatch
// requests are used up. With a tracer, every other request of each
// client is traced.
func (r *mixRun) loop(tr *tracer, budget time.Duration) phase {
	var p phase
	var mu sync.Mutex
	start := time.Now()
	done := func() bool {
		mu.Lock()
		defer mu.Unlock()
		el := time.Since(start)
		return (len(r.records) >= mixBatch && el >= budget) || el > maxLoop
	}
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *mixClient) {
			defer wg.Done()
			for i := 0; !done(); i++ {
				rec := r.request(c, alternate(tr, i))
				mu.Lock()
				r.records = append(r.records, rec)
				if len(r.records) == mixBatch {
					p.batch = time.Since(start)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	for _, rec := range r.records {
		p.ops = append(p.ops, opSample{class: rec.class, d: rec.rtt, traced: rec.traced, at: rec.done.Sub(start)})
	}
	r.out.attempted += len(r.records)
	return p
}

// resultDigest folds a result's per-statement digests exactly as the
// service's result_digest does: (id, digest) pairs in ascending ID
// order, SHA-256, first 16 bytes.
func resultDigest(res *analysis.Result) string {
	ids := make([]int, 0, len(res.Out))
	for id := range res.Out {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	var buf [8]byte
	for _, id := range ids {
		d := res.Out[id].Digest()
		binary.BigEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// checkColds compares every cold reply with a storeless in-process run
// of the same source.
func (r *mixRun) checkColds() {
	for _, rec := range r.coldSeen {
		prog, err := verdict.Compile(rec.src)
		if err != nil {
			r.out.fail("cold %s: compile: %v", rec.name, err)
			continue
		}
		res, err := analysis.Run(prog, analysis.Options{Level: rsg.L1, Workers: 1})
		if err != nil {
			r.out.fail("cold %s: storeless run: %v", rec.name, err)
			continue
		}
		if d := resultDigest(res); d != rec.resp.ResultDigest {
			r.out.fail("cold %s: service digest %s, storeless %s", rec.name, rec.resp.ResultDigest, d)
		}
	}
}

// probe replays, in process against the service's store, a warm run of
// every base and each of its edits. Their counters are the traced run's
// engine counts; every edit must be edit-delta and agree with the
// service's replies.
func (r *mixRun) probe() (engineTotals, error) {
	var eng engineTotals
	opts := analysis.Options{Level: rsg.L1, Workers: 1, Store: r.srv.st}
	for b, base := range r.bases {
		srcs := append([]string{base.src}, r.edits[b]...)
		for k, src := range srcs {
			prog, err := verdict.Compile(src)
			if err != nil {
				return eng, err
			}
			prog.Name = base.name
			res, err := analysis.Run(prog, opts)
			if err != nil {
				return eng, fmt.Errorf("probe %s+%d: %w", base.name, k, err)
			}
			eng.add(&res.Stats)
			d := resultDigest(res)
			if k == 0 {
				if res.Stats.ReusedStatements == 0 || d != base.digest {
					r.out.fail("probe warm %s: %d reused, digest %s, want %s", base.name, res.Stats.ReusedStatements, d, base.digest)
				}
				continue
			}
			if res.Stats.ReseededStatements == 0 {
				r.out.fail("probe edit %s+%d: no statement reseeded", base.name, k)
			}
			if want, ok := r.editDig[fmt.Sprintf("%s/%d", base.name, k)]; ok && want != d {
				r.out.fail("probe edit %s+%d: digest %s, service %s", base.name, k, d, want)
			}
		}
	}
	return eng, nil
}

// setupMix generates the inputs, boots shaped over a fresh store and
// cold-analyzes the bases through it.
func setupMix(cfg config, dir string, tr *tracer) (*mixRun, error) {
	r := &mixRun{out: &outcome{}, editDig: make(map[string]string)}
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, name := range mixBases {
		k := benchprog.ByName(name)
		r.bases = append(r.bases, version{name: name, src: k.Source})
		var eds []string
		src := k.Source
		for i := 0; i < mixMaxEdit; i++ {
			var err error
			if src, err = benchprog.TailEditSource(src); err != nil {
				return nil, err
			}
			eds = append(eds, src)
		}
		r.edits = append(r.edits, eds)
	}
	seen := make(map[string]bool)
	for i := 0; i < mixClients; i++ {
		r.clients = append(r.clients, &mixClient{id: i, rng: rand.New(rand.NewSource(rng.Int63()))})
	}
	for n := 0; n < mixClients*mixColdPool; n++ {
		gen := concrete.GenFreeProgram
		if n%4 == 3 {
			gen = concrete.GenProgram
		}
		src := gen(rand.New(rand.NewSource(rng.Int63())))
		if seen[src] {
			continue
		}
		seen[src] = true
		c := r.clients[n%mixClients]
		c.colds = append(c.colds, src)
	}

	root := tr.begin("op.setup")
	defer root.end()
	srv, err := bootMix(dir, root)
	if err != nil {
		return nil, err
	}
	r.srv = srv
	for i := range r.bases {
		b := &r.bases[i]
		sp := root.child("http.analyze")
		resp, err := srv.cl.Analyze(service.AnalyzeRequest{Name: b.name, Source: b.src, Level: 1})
		sp.end()
		if err == nil && (resp.Outcome != "converged" || resp.ReusedStatements != 0) {
			err = fmt.Errorf("outcome %s with %d statements reused", resp.Outcome, resp.ReusedStatements)
		}
		if err != nil {
			srv.stop()
			return nil, fmt.Errorf("cold-analyzing base %s: %w", b.name, err)
		}
		b.digest = resp.ResultDigest
	}
	return r, nil
}

// runMix measures an in-process shaped under two closed-loop clients.
func runMix(cfg config) (*outcome, error) {
	var r *mixRun
	var setups, opens []time.Duration
	// Set-up spans go to their own tracer so that per-request self
	// times cover the request loop only.
	var setupTr *tracer
	if cfg.trace {
		setupTr = &tracer{}
	}
	for i := 0; i < mixSetups; i++ {
		if r != nil {
			r.srv.stop()
		}
		// Each set-up starts from a collected heap, not from the garbage
		// of the one before.
		runtime.GC()
		start := time.Now()
		var err error
		r, err = setupMix(cfg, filepath.Join(cfg.scratch, fmt.Sprintf("store-%d", i)), setupTr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		opens = append(opens, r.srv.openD)
	}
	out := r.out
	out.setup = setups
	defer r.srv.stop()

	var tr *tracer
	layers := make(map[string]float64)
	if cfg.trace {
		tr = &tracer{next: setupTr.next}
	}
	g0, _, s0 := r.srv.st.Counts()
	size0 := fileSize(r.srv.path)
	stats0, err := r.srv.cl.Stats()
	if err != nil {
		return nil, err
	}
	// Start the loop from a collected heap, not from whatever the three
	// set-ups left behind.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out.measured = r.loop(tr, cfg.seconds)
	runtime.ReadMemStats(&m1)
	stats1, err := r.srv.cl.Stats()
	if err != nil {
		return nil, err
	}
	g1, _, s1 := r.srv.st.Counts()
	size1 := fileSize(r.srv.path)
	if cfg.trace {
		n := float64(len(r.records))
		colds := 0.0
		var engine, overhead time.Duration
		for _, rec := range r.records {
			engine += rec.engine
			overhead += rec.rtt - rec.engine
			if rec.class == "cold" {
				colds++
			}
		}
		layers["service.engine_ms"] = msOf(engine) / n
		layers["service.overhead_ms"] = msOf(overhead) / n
		a0, a1 := stats0.Endpoints["analyze"], stats1.Endpoints["analyze"]
		layers["service.queued"] = float64(a1.Queued - a0.Queued)
		layers["service.rejected"] = float64(a1.Rejected - a0.Rejected)
		layers["store.open_ms"] = msOf(medianDuration(opens))
		layers["store.append_bytes_per_req"] = float64(size1-size0) / n
		layers["store.graphs_written"] = ratio(float64(g1-g0), colds)
		layers["store.snapshots_written"] = ratio(float64(s1-s0), colds)
		memDelta(&m0, &m1).file(layers, len(r.records))
		fileTrace(layers, tr, out.measured.ops)
		out.layers = layers
		tr.spans = append(setupTr.spans, tr.spans...)
		if err := tr.write(traceFile(cfg, "shaped-mix")); err != nil {
			return nil, err
		}
	}
	out.peakRSSKB = selfPeakRSSKB()

	eng, err := r.probe()
	if err != nil {
		return nil, err
	}
	if out.layers != nil {
		eng.file(out.layers)
	}
	r.checkColds()
	return out, nil
}

func medianDuration(ds []time.Duration) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(median(v))
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
