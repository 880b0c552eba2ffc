package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/verdict"
)

// maxBodyBytes bounds request bodies; mini-C sources are small.
const maxBodyBytes = 4 << 20

// engineWorkers is the analysis worker count inside each request. It
// is 1 because admission already runs Config.Workers requests at once,
// which fills the machine; digests do not depend on it either way.
const engineWorkers = 1

// AnalyzeRequest is the POST /analyze payload.
type AnalyzeRequest struct {
	// Name identifies the program in the store (snapshot warm-start and
	// edit-delta keying). Empty derives a stable name from the source
	// hash, so resubmitting identical source still warm-starts.
	Name string `json:"name,omitempty"`
	// Source is the mini-C program text.
	Source string `json:"source"`
	// Level is the analysis level 1..3 (default 1).
	Level int `json:"level,omitempty"`
	// TimeoutMS is the wall-clock budget; 0 means the server default,
	// and values above the server ceiling are clamped down to it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxVisits bounds statement transfers (0 = engine default);
	// clamped by the server ceiling.
	MaxVisits int `json:"max_visits,omitempty"`
	// NodeBudget bounds live abstract nodes (0 = server ceiling, or
	// unlimited when the server has none); clamped by the ceiling.
	NodeBudget int `json:"node_budget,omitempty"`
	// Digests asks for the full per-statement digest map in the
	// response (the fold over it is always returned).
	Digests bool `json:"digests,omitempty"`
}

// AnalyzeResponse is the POST /analyze payload on success (including
// the non-convergence and budget-exceeded outcomes, which are resource
// verdicts, not transport failures).
type AnalyzeResponse struct {
	Name    string `json:"name"`
	Level   string `json:"level"`
	Outcome string `json:"outcome"` // converged | no-convergence | budget-exceeded
	Error   string `json:"error,omitempty"`
	Visits  int    `json:"visits"`
	// DurationUS is the engine wall-clock, not the request latency.
	DurationUS int64 `json:"duration_us"`
	// ReusedStatements counts out-states restored from a store snapshot.
	ReusedStatements int `json:"reused_statements"`
	// ResultDigest folds every statement's RSRSG digest into one hex
	// digest: equal iff the whole result is bit-identical.
	ResultDigest string `json:"result_digest,omitempty"`
	// ExitDigest is the RSRSG digest at the function exit.
	ExitDigest string `json:"exit_digest,omitempty"`
	// StmtDigests maps statement ID to its RSRSG digest (with
	// AnalyzeRequest.Digests only).
	StmtDigests map[string]string `json:"stmt_digests,omitempty"`
	// SharedTallies mirrors analysis.Stats.SharedTallies.
	SharedTallies bool   `json:"shared_tallies"`
	CacheSummary  string `json:"cache_summary"`
	SchedSummary  string `json:"sched_summary"`
}

// CheckRequest is the POST /check payload.
type CheckRequest struct {
	Name   string `json:"name,omitempty"`
	Source string `json:"source"`
	// TimeoutMS/MaxVisits/NodeBudget clamp exactly as in /analyze and
	// apply to every level of the progressive run.
	TimeoutMS  int64 `json:"timeout_ms,omitempty"`
	MaxVisits  int   `json:"max_visits,omitempty"`
	NodeBudget int   `json:"node_budget,omitempty"`
	// ConfirmRuns/ConfirmSeed tune the randomized alarm confirmation
	// (defaults 64 / 1).
	ConfirmRuns int   `json:"confirm_runs,omitempty"`
	ConfirmSeed int64 `json:"confirm_seed,omitempty"`
}

// CheckVerdict is one class's settled verdict.
type CheckVerdict struct {
	Class string `json:"class"`
	// Verdict is the corpus-header syntax: "safe@L2", "unsafe", ...
	Verdict string   `json:"verdict"`
	Status  string   `json:"status"`
	Level   string   `json:"level,omitempty"` // safe verdicts only
	Alarms  []string `json:"alarms,omitempty"`
}

// CheckResponse is the POST /check payload on success.
type CheckResponse struct {
	Name       string         `json:"name"`
	Verdicts   []CheckVerdict `json:"verdicts"`
	DurationUS int64          `json:"duration_us"`
	// Error is set when every level of the progressive run failed (the
	// verdicts are all unknown then).
	Error string `json:"error,omitempty"`
}

// decodeBody reads one JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "service: POST only")
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "service: reading body: "+err.Error())
		return false
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("service: body exceeds %d bytes", maxBodyBytes))
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, "service: decoding request: "+err.Error())
		return false
	}
	return true
}

// compileSource parses and lowers the request source, naming the
// program for store keying.
func compileSource(name, source string) (*ir.Program, error) {
	if source == "" {
		return nil, errors.New("empty source")
	}
	prog, err := verdict.Compile(source)
	if err != nil {
		return nil, err
	}
	if name == "" {
		sum := sha256.Sum256([]byte(source))
		name = "src-" + hex.EncodeToString(sum[:6])
	}
	prog.Name = name
	return prog, nil
}

// clampBudgets folds the request budgets and the server ceilings into
// engine options.
func (s *Service) clampBudgets(opts *analysis.Options, timeoutMS int64, maxVisits, nodeBudget int) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	opts.Timeout = timeout

	visits := maxVisits
	if visits <= 0 || visits > s.cfg.MaxVisits {
		visits = s.cfg.MaxVisits
	}
	opts.MaxVisits = visits

	budget := nodeBudget
	if max := s.cfg.MaxNodeBudget; max > 0 && (budget <= 0 || budget > max) {
		budget = max
	}
	if budget > 0 {
		opts.NodeBudget = budget
	}
}

// levelFromRequest validates the requested analysis level.
func levelFromRequest(lvl int) (rsg.Level, error) {
	switch lvl {
	case 0, 1:
		return rsg.L1, nil
	case 2:
		return rsg.L2, nil
	case 3:
		return rsg.L3, nil
	}
	return 0, fmt.Errorf("level %d out of range 1..3", lvl)
}

// resultDigests renders the per-statement digest map and its canonical
// fold. The fold hashes (id, digest) pairs in ascending statement-ID
// order, so two results agree iff every statement's RSRSG is
// bit-identical.
func resultDigests(res *analysis.Result) (fold string, stmts map[string]string, exit string) {
	ids := make([]int, 0, len(res.Out))
	for id := range res.Out {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	stmts = make(map[string]string, len(ids))
	var buf [8]byte
	for _, id := range ids {
		d := res.Out[id].Digest()
		binary.BigEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
		h.Write(d[:])
		stmts[strconv.Itoa(id)] = d.String()
	}
	sum := h.Sum(nil)
	fold = hex.EncodeToString(sum[:16])
	if ex := res.ExitSet(); ex != nil {
		exit = ex.Digest().String()
	}
	return fold, stmts, exit
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !decodeBody(w, r, &req) {
		s.analyzeEP.failures.Add(1)
		s.analyzeEP.requests.Add(1)
		return
	}
	level, err := levelFromRequest(req.Level)
	if err != nil {
		s.analyzeEP.failures.Add(1)
		s.analyzeEP.requests.Add(1)
		writeError(w, http.StatusBadRequest, "service: "+err.Error())
		return
	}
	release, ok := s.admit(w, r, &s.analyzeEP)
	if !ok {
		return
	}
	defer release()
	start := time.Now()

	// Run mutates the program (induction annotation, symbol
	// resolution), so every request compiles its own.
	prog, err := compileSource(req.Name, req.Source)
	if err != nil {
		s.analyzeEP.failures.Add(1)
		writeError(w, http.StatusBadRequest, "service: compile: "+err.Error())
		return
	}

	opts := analysis.Options{
		Level:   level,
		Workers: engineWorkers,
		Store:   s.cfg.Store,
	}
	s.clampBudgets(&opts, req.TimeoutMS, req.MaxVisits, req.NodeBudget)

	res, runErr := analysis.Run(prog, opts)
	s.agg.add(&res.Stats)

	resp := AnalyzeResponse{
		Name:             prog.Name,
		Level:            level.String(),
		Outcome:          "converged",
		Visits:           res.Stats.Visits,
		DurationUS:       res.Stats.Duration.Microseconds(),
		ReusedStatements: res.Stats.ReusedStatements,
		SharedTallies:    res.Stats.SharedTallies,
		CacheSummary:     res.Stats.CacheSummary(),
		SchedSummary:     res.Stats.SchedSummary(),
	}
	switch {
	case runErr == nil:
	case errors.Is(runErr, analysis.ErrTimeout):
		s.analyzeEP.timeouts.Add(1)
		s.analyzeEP.observe(time.Since(start))
		writeError(w, http.StatusGatewayTimeout, "service: "+runErr.Error())
		return
	case errors.Is(runErr, analysis.ErrNoConvergence):
		resp.Outcome = "no-convergence"
		resp.Error = runErr.Error()
	case errors.Is(runErr, analysis.ErrBudgetExceeded):
		resp.Outcome = "budget-exceeded"
		resp.Error = runErr.Error()
	default:
		s.analyzeEP.failures.Add(1)
		s.analyzeEP.observe(time.Since(start))
		writeError(w, http.StatusInternalServerError, "service: "+runErr.Error())
		return
	}
	// A budget abort leaves the out-states mid-flight; digests are only
	// meaningful for converged and visit-bounded results.
	if resp.Outcome != "budget-exceeded" {
		fold, stmts, exit := resultDigests(res)
		resp.ResultDigest = fold
		resp.ExitDigest = exit
		if req.Digests {
			resp.StmtDigests = stmts
		}
	}
	s.analyzeEP.ok.Add(1)
	s.analyzeEP.observe(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if !decodeBody(w, r, &req) {
		s.checkEP.failures.Add(1)
		s.checkEP.requests.Add(1)
		return
	}
	release, ok := s.admit(w, r, &s.checkEP)
	if !ok {
		return
	}
	defer release()
	start := time.Now()

	prog, err := compileSource(req.Name, req.Source)
	if err != nil {
		s.checkEP.failures.Add(1)
		writeError(w, http.StatusBadRequest, "service: compile: "+err.Error())
		return
	}

	vopts := verdict.Options{
		Analysis: analysis.Options{
			Workers: engineWorkers,
			Store:   s.cfg.Store,
		},
		ConfirmRuns: req.ConfirmRuns,
		ConfirmSeed: req.ConfirmSeed,
	}
	s.clampBudgets(&vopts.Analysis, req.TimeoutMS, req.MaxVisits, req.NodeBudget)

	rep := verdict.Check(prog, vopts)
	if rep.Progressive != nil {
		for i := range rep.Progressive.Levels {
			if lr := &rep.Progressive.Levels[i]; lr.Result != nil {
				s.agg.add(&lr.Result.Stats)
			}
		}
	}
	if rep.Err != nil && errors.Is(rep.Err, analysis.ErrTimeout) {
		s.checkEP.timeouts.Add(1)
		s.checkEP.observe(time.Since(start))
		writeError(w, http.StatusGatewayTimeout, "service: "+rep.Err.Error())
		return
	}

	resp := CheckResponse{
		Name:       prog.Name,
		DurationUS: time.Since(start).Microseconds(),
	}
	if rep.Err != nil {
		resp.Error = rep.Err.Error()
	}
	for _, v := range rep.Verdicts {
		cv := CheckVerdict{
			Class:   v.Class.String(),
			Verdict: v.String(),
			Status:  v.Status.String(),
		}
		if v.Status == verdict.Safe {
			cv.Level = v.Level.String()
		}
		for _, a := range v.Alarms {
			cv.Alarms = append(cv.Alarms, a.String())
		}
		resp.Verdicts = append(resp.Verdicts, cv)
	}
	s.checkEP.ok.Add(1)
	s.checkEP.observe(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}
