// Package service implements shaped, the shape-analysis daemon: an
// HTTP/JSON front end over the analysis engine and the memory-safety
// checkers, sharing one persistent store across all requests
// (DESIGN.md §15).
//
// Endpoints:
//
//	POST /analyze  — one analysis.Run at a requested level; responds
//	                 with the outcome, engine stats and the canonical
//	                 per-statement RSRSG digests.
//	POST /check    — the internal/verdict memory-safety checkers;
//	                 responds with one verdict per class.
//	GET  /stats    — store counts, aggregate engine counters, the
//	                 compiled-program cache counters, and per-endpoint
//	                 request/latency/queue counters.
//	GET  /healthz  — liveness probe.
//
// Admission is a bounded worker pool: at most Config.Workers requests
// execute concurrently, at most Config.Queue more wait; past that the
// service answers 429 immediately. Per-request budgets (timeout, visit
// cap, node budget) are taken from the request but clamped by the
// server-side ceilings, so no client can pin a worker indefinitely; a
// run that exceeds its timeout answers 504 while the other workers
// keep serving. Both POST endpoints share compiled programs across
// requests with the same name and source (progcache.go); the engine
// never modifies a program, so concurrent requests may share one.
package service

import (
	"encoding/json"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/rsg"
	"repro/internal/store"
)

// Config tunes the service. The zero value of every field selects a
// sensible default; Store may be nil to run storeless.
type Config struct {
	// Store is the shared persistent analysis store backing every
	// request. All requests run over this one handle; the store's own
	// locking makes the concurrent accesses safe, and its flock makes
	// this process the file's single writer. Nil disables persistence.
	Store *store.Store
	// Workers bounds the requests executing concurrently (default
	// GOMAXPROCS).
	Workers int
	// Queue bounds the requests waiting for a worker (default
	// 2*Workers). A request arriving when all workers are busy and the
	// queue is full is rejected with 429.
	Queue int
	// DefaultTimeout applies to requests that send no timeout_ms
	// (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout is the ceiling on per-request timeouts (default 2m).
	// Requests asking for more are clamped down to it.
	MaxTimeout time.Duration
	// MaxVisits is the ceiling on per-request visit budgets (default
	// 200000, the engine default).
	MaxVisits int
	// MaxNodeBudget is the ceiling on per-request node budgets;
	// 0 leaves the budget unlimited unless the request sets one.
	MaxNodeBudget int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.Queue < 0 {
		out.Queue = 0
	} else if out.Queue == 0 {
		out.Queue = 2 * out.Workers
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 30 * time.Second
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = 2 * time.Minute
	}
	if out.MaxVisits <= 0 {
		out.MaxVisits = 200000
	}
	return out
}

// epStats is one endpoint's counter block. All fields are atomics so
// handlers update them without a lock.
type epStats struct {
	requests atomic.Int64 // admitted or not
	ok       atomic.Int64 // 2xx responses
	rejected atomic.Int64 // 429 queue-overflow rejections
	timeouts atomic.Int64 // 504 budget timeouts
	failures atomic.Int64 // 4xx/5xx other than 429/504
	queued   atomic.Int64 // admissions that had to wait for a worker
	totalUS  atomic.Int64 // summed handler latency (µs), admitted only
	maxUS    atomic.Int64 // peak handler latency (µs)
}

func (e *epStats) observe(d time.Duration) {
	us := d.Microseconds()
	e.totalUS.Add(us)
	for {
		cur := e.maxUS.Load()
		if us <= cur || e.maxUS.CompareAndSwap(cur, us) {
			return
		}
	}
}

// aggStats accumulates analysis.Stats across every completed /analyze
// and /check run, for the /stats endpoint.
type aggStats struct {
	runs            atomic.Int64
	visits          atomic.Int64
	storeMemoHits   atomic.Int64
	reusedStmts     atomic.Int64
	reseededStmts   atomic.Int64
	graphsFrozen    atomic.Int64
	digestsComputed atomic.Int64
	internHits      atomic.Int64
	internMisses    atomic.Int64
}

func (a *aggStats) add(s *analysis.Stats) {
	a.runs.Add(1)
	a.visits.Add(int64(s.Visits))
	a.storeMemoHits.Add(int64(s.StoreMemoHits))
	a.reusedStmts.Add(int64(s.ReusedStatements))
	a.reseededStmts.Add(int64(s.ReseededStatements))
	a.graphsFrozen.Add(int64(s.Cache.GraphsFrozen))
	a.digestsComputed.Add(int64(s.Cache.DigestsComputed))
	a.internHits.Add(int64(s.Cache.InternHits))
	a.internMisses.Add(int64(s.Cache.InternMisses))
}

// Service is the daemon's http.Handler.
type Service struct {
	cfg   Config
	start time.Time
	mux   *http.ServeMux

	// sem holds one token per executing request; queue holds one per
	// waiting request. A request first claims a queue-or-run slot via
	// queue (full ⇒ 429), then blocks for a sem token.
	sem   chan struct{}
	queue chan struct{}

	inFlight  atomic.Int64
	queuedNow atomic.Int64

	analyzeEP epStats
	checkEP   epStats
	agg       aggStats
	progs     progCache
}

// New builds a Service from cfg (zero fields defaulted).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:   cfg,
		start: time.Now(),
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, cfg.Workers),
		queue: make(chan struct{}, cfg.Queue),
	}
	s.mux.HandleFunc("/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/check", s.handleCheck)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	return s
}

// Config returns the resolved (post-default) configuration.
func (s *Service) Config() Config { return s.cfg }

func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// admit claims a worker slot for the request, waiting in the bounded
// queue if all workers are busy. It returns a release func on success;
// on overflow or client abandonment it writes the error response and
// returns ok=false.
func (s *Service) admit(w http.ResponseWriter, r *http.Request, ep *epStats) (release func(), ok bool) {
	ep.requests.Add(1)
	// Fast path: a worker is free right now.
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
		return s.release, true
	default:
	}
	// All workers busy: claim a queue slot or reject.
	select {
	case s.queue <- struct{}{}:
	default:
		ep.rejected.Add(1)
		writeError(w, http.StatusTooManyRequests, "service: worker pool and queue full")
		return nil, false
	}
	ep.queued.Add(1)
	s.queuedNow.Add(1)
	defer func() {
		s.queuedNow.Add(-1)
		<-s.queue
	}()
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
		return s.release, true
	case <-r.Context().Done():
		ep.failures.Add(1)
		writeError(w, http.StatusServiceUnavailable, "service: client gave up while queued")
		return nil, false
	}
}

func (s *Service) release() {
	s.inFlight.Add(-1)
	<-s.sem
}

// EndpointStats is the JSON form of one endpoint's counters.
type EndpointStats struct {
	Requests int64 `json:"requests"`
	OK       int64 `json:"ok"`
	Rejected int64 `json:"rejected"`
	Timeouts int64 `json:"timeouts"`
	Failures int64 `json:"failures"`
	Queued   int64 `json:"queued"`
	TotalUS  int64 `json:"total_us"`
	MaxUS    int64 `json:"max_us"`
	MeanUS   int64 `json:"mean_us"`
}

func (e *epStats) snapshot() EndpointStats {
	out := EndpointStats{
		Requests: e.requests.Load(),
		OK:       e.ok.Load(),
		Rejected: e.rejected.Load(),
		Timeouts: e.timeouts.Load(),
		Failures: e.failures.Load(),
		Queued:   e.queued.Load(),
		TotalUS:  e.totalUS.Load(),
		MaxUS:    e.maxUS.Load(),
	}
	if served := out.OK + out.Timeouts + out.Failures; served > 0 {
		out.MeanUS = out.TotalUS / served
	}
	return out
}

// StoreStats is the JSON form of the shared store's state.
type StoreStats struct {
	Graphs    int  `json:"graphs"`
	Memos     int  `json:"memos"`
	Snapshots int  `json:"snapshots"`
	ReadOnly  bool `json:"read_only"`
}

// AnalysisTotals aggregates analysis.Stats across all completed runs.
type AnalysisTotals struct {
	Runs            int64 `json:"runs"`
	Visits          int64 `json:"visits"`
	StoreMemoHits   int64 `json:"store_memo_hits"`
	ReusedStmts     int64 `json:"reused_statements"`
	ReseededStmts   int64 `json:"reseeded_statements"`
	GraphsFrozen    int64 `json:"graphs_frozen"`
	DigestsComputed int64 `json:"digests_computed"`
	InternHits      int64 `json:"intern_hits"`
	InternMisses    int64 `json:"intern_misses"`
}

// StatsResponse is the GET /stats payload. InternedGraphs is a gauge,
// not a total: the entries in the process-global rsg intern table now
// (rsg.InternedGraphs).
type StatsResponse struct {
	UptimeUS       int64                    `json:"uptime_us"`
	Workers        int                      `json:"workers"`
	Queue          int                      `json:"queue"`
	InFlight       int64                    `json:"in_flight"`
	QueuedNow      int64                    `json:"queued_now"`
	InternedGraphs int                      `json:"interned_graphs"`
	Store          *StoreStats              `json:"store,omitempty"`
	Analysis       AnalysisTotals           `json:"analysis"`
	Programs       ProgramStats             `json:"programs"`
	Endpoints      map[string]EndpointStats `json:"endpoints"`
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "service: GET only")
		return
	}
	resp := StatsResponse{
		UptimeUS:       time.Since(s.start).Microseconds(),
		Workers:        s.cfg.Workers,
		Queue:          s.cfg.Queue,
		InFlight:       s.inFlight.Load(),
		QueuedNow:      s.queuedNow.Load(),
		InternedGraphs: rsg.InternedGraphs(),
		Analysis: AnalysisTotals{
			Runs:            s.agg.runs.Load(),
			Visits:          s.agg.visits.Load(),
			StoreMemoHits:   s.agg.storeMemoHits.Load(),
			ReusedStmts:     s.agg.reusedStmts.Load(),
			ReseededStmts:   s.agg.reseededStmts.Load(),
			GraphsFrozen:    s.agg.graphsFrozen.Load(),
			DigestsComputed: s.agg.digestsComputed.Load(),
			InternHits:      s.agg.internHits.Load(),
			InternMisses:    s.agg.internMisses.Load(),
		},
		Programs: s.progs.stats(),
		Endpoints: map[string]EndpointStats{
			"analyze": s.analyzeEP.snapshot(),
			"check":   s.checkEP.snapshot(),
		},
	}
	if st := s.cfg.Store; st != nil {
		g, m, sn := st.Counts()
		resp.Store = &StoreStats{Graphs: g, Memos: m, Snapshots: sn, ReadOnly: st.ReadOnly()}
	}
	writeJSON(w, http.StatusOK, resp)
}
