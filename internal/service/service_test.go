package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/verdict"
)

// soloDigests runs the analysis storeless in-process and returns the
// per-statement digest map in the service's wire format — the ground
// truth the daemon's responses must match bit-for-bit.
func soloDigests(t *testing.T, kernel string, level rsg.Level) map[string]string {
	t.Helper()
	prog := compileKernel(t, kernel)
	res, err := analysis.Run(prog, analysis.Options{Level: level})
	if err != nil {
		t.Fatalf("solo run %s: %v", kernel, err)
	}
	out := make(map[string]string, len(res.Out))
	for id, set := range res.Out {
		out[strconv.Itoa(id)] = set.Digest().String()
	}
	return out
}

func compileKernel(t *testing.T, kernel string) *ir.Program {
	t.Helper()
	k := benchprog.ByName(kernel)
	if k == nil {
		t.Fatalf("unknown kernel %q", kernel)
	}
	prog, err := k.Compile()
	if err != nil {
		t.Fatalf("compile %s: %v", kernel, err)
	}
	return prog
}

// newServer starts a Service over a fresh persistent store.
func newServer(t *testing.T, cfg service.Config) (*httptest.Server, *store.Store) {
	t.Helper()
	if cfg.Store == nil {
		st, err := store.Open(filepath.Join(t.TempDir(), "shape.rsgstore"))
		if err != nil {
			t.Fatalf("opening store: %v", err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Store = st
	}
	srv := httptest.NewServer(service.New(cfg))
	t.Cleanup(srv.Close)
	return srv, cfg.Store
}

func postJSON(t *testing.T, url string, req, resp any) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer r.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	if r.StatusCode == http.StatusOK && resp != nil {
		if err := json.Unmarshal(buf.Bytes(), resp); err != nil {
			t.Fatalf("decode %s response: %v\n%s", url, err, buf.String())
		}
	}
	return r.StatusCode, buf.String()
}

// TestAnalyzeMatchesSoloRun pins the service's core determinism
// contract: an /analyze response over the shared persistent store
// carries per-statement digests bit-identical to a solo storeless
// analysis.Run of the same program — including on the second,
// warm-started submission.
func TestAnalyzeMatchesSoloRun(t *testing.T) {
	srv, _ := newServer(t, service.Config{Workers: 2})
	for _, kernel := range []string{"matvec", "slist"} {
		want := soloDigests(t, kernel, rsg.L1)
		for round := 0; round < 2; round++ {
			var resp service.AnalyzeResponse
			code, body := postJSON(t, srv.URL+"/analyze", service.AnalyzeRequest{
				Name:    kernel,
				Source:  benchprog.ByName(kernel).Source,
				Level:   1,
				Digests: true,
			}, &resp)
			if code != http.StatusOK {
				t.Fatalf("%s round %d: status %d: %s", kernel, round, code, body)
			}
			if resp.Outcome != "converged" {
				t.Fatalf("%s round %d: outcome %q (%s)", kernel, round, resp.Outcome, resp.Error)
			}
			if !reflect.DeepEqual(resp.StmtDigests, want) {
				t.Fatalf("%s round %d: service digests diverge from solo run\nservice: %v\nsolo:    %v",
					kernel, round, resp.StmtDigests, want)
			}
			if round == 1 && resp.ReusedStatements == 0 {
				t.Errorf("%s round 1: expected a snapshot warm-start, got 0 reused statements", kernel)
			}
		}
	}
}

// getStats fetches and decodes GET /stats.
func getStats(t *testing.T, url string) service.StatsResponse {
	t.Helper()
	r, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer r.Body.Close()
	var stats service.StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return stats
}

// TestConcurrentMixedRequests drives 8 simultaneous requests — a mix
// of /analyze and /check across different programs — through one
// shared store, and checks every /analyze digest map against its solo
// storeless run and every /check verdict line against a solo
// verdict.Check. The batch names three distinct (name, source) pairs,
// so it leaves three cached programs; a second identical batch is served
// entirely from them, with identical /analyze and /check requests
// running concurrently on one shared program.
func TestConcurrentMixedRequests(t *testing.T) {
	srv, st := newServer(t, service.Config{Workers: 8, Queue: 8})

	analyzeKernels := []string{"matvec", "slist", "dlist", "matvec"}
	checkKernels := []string{"slist", "dlist", "slist", "dlist"}

	wantDigests := make(map[string]map[string]string)
	for _, k := range analyzeKernels {
		if wantDigests[k] == nil {
			wantDigests[k] = soloDigests(t, k, rsg.L1)
		}
	}
	wantVerdicts := make(map[string][]string)
	for _, k := range checkKernels {
		if wantVerdicts[k] == nil {
			rep := verdict.Check(compileKernel(t, k), verdict.Options{})
			if rep.Err != nil {
				t.Fatalf("solo check %s: %v", k, rep.Err)
			}
			for _, v := range rep.Verdicts {
				wantVerdicts[k] = append(wantVerdicts[k], v.Class.String()+"="+v.String())
			}
		}
	}

	batch := int64(len(analyzeKernels) + len(checkKernels))
	var misses int64
	for round := int64(1); round <= 2; round++ {
		runMixedBatch(t, srv.URL, analyzeKernels, checkKernels, wantDigests, wantVerdicts)
		progs := getStats(t, srv.URL).Programs
		if progs.Entries != 3 || progs.Hits+progs.Misses != round*batch {
			t.Errorf("batch %d: program cache %+v, want 3 entries and %d lookups", round, progs, round*batch)
		}
		if round == 2 && progs.Misses != misses {
			t.Errorf("batch 2 compiled again: program cache %+v, %d misses after batch 1", progs, misses)
		}
		misses = progs.Misses
	}

	if g, _, _ := st.Counts(); g == 0 {
		t.Error("shared store recorded no graphs across 8 requests")
	}
}

// runMixedBatch sends the /analyze and /check requests all at once and
// checks each reply against the solo results.
func runMixedBatch(t *testing.T, url string, analyzeKernels, checkKernels []string,
	wantDigests map[string]map[string]string, wantVerdicts map[string][]string) {
	t.Helper()
	var wg sync.WaitGroup
	errc := make(chan error, len(analyzeKernels)+len(checkKernels))
	for i, kernel := range analyzeKernels {
		wg.Add(1)
		go func(i int, kernel string) {
			defer wg.Done()
			var resp service.AnalyzeResponse
			code, body := postJSON(t, url+"/analyze", service.AnalyzeRequest{
				Name:    kernel,
				Source:  benchprog.ByName(kernel).Source,
				Level:   1,
				Digests: true,
			}, &resp)
			if code != http.StatusOK {
				errc <- fmt.Errorf("analyze[%d] %s: status %d: %s", i, kernel, code, body)
				return
			}
			if !reflect.DeepEqual(resp.StmtDigests, wantDigests[kernel]) {
				errc <- fmt.Errorf("analyze[%d] %s: digests diverge from solo run", i, kernel)
			}
		}(i, kernel)
	}
	for i, kernel := range checkKernels {
		wg.Add(1)
		go func(i int, kernel string) {
			defer wg.Done()
			var resp service.CheckResponse
			code, body := postJSON(t, url+"/check", service.CheckRequest{
				Name:   kernel,
				Source: benchprog.ByName(kernel).Source,
			}, &resp)
			if code != http.StatusOK {
				errc <- fmt.Errorf("check[%d] %s: status %d: %s", i, kernel, code, body)
				return
			}
			var got []string
			for _, v := range resp.Verdicts {
				got = append(got, v.Class+"="+v.Verdict)
			}
			if !reflect.DeepEqual(got, wantVerdicts[kernel]) {
				errc <- fmt.Errorf("check[%d] %s: verdicts %v, want %v", i, kernel, got, wantVerdicts[kernel])
			}
		}(i, kernel)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestTimeoutReturns504WhileOthersComplete pins the isolation
// property: a request burning its (tiny, clamped) budget answers 504
// with exactly one "after <dur> (<n> visits)" suffix, while a
// well-budgeted request running concurrently completes normally.
func TestTimeoutReturns504WhileOthersComplete(t *testing.T) {
	srv, _ := newServer(t, service.Config{Workers: 4})

	var wg sync.WaitGroup
	wg.Add(1)
	var slowCode int
	var slowBody string
	go func() {
		defer wg.Done()
		slowCode, slowBody = postJSON(t, srv.URL+"/analyze", service.AnalyzeRequest{
			Name:      "bh-timeout",
			Source:    benchprog.ByName("barneshut").Source,
			Level:     3,
			TimeoutMS: 1,
		}, nil)
	}()

	var resp service.AnalyzeResponse
	code, body := postJSON(t, srv.URL+"/analyze", service.AnalyzeRequest{
		Name:   "matvec",
		Source: benchprog.ByName("matvec").Source,
		Level:  1,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("concurrent healthy request failed: status %d: %s", code, body)
	}
	if resp.Outcome != "converged" {
		t.Fatalf("concurrent healthy request outcome %q", resp.Outcome)
	}

	wg.Wait()
	if slowCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request: status %d, want 504: %s", slowCode, slowBody)
	}
	if n := strings.Count(slowBody, "after"); n != 1 {
		t.Fatalf("timeout body carries %d 'after' suffixes, want 1: %s", n, slowBody)
	}
	if !strings.Contains(slowBody, "visits)") {
		t.Fatalf("timeout body lost the visit count: %s", slowBody)
	}
}

// TestStatsEndpoint checks that /stats surfaces the store counts, the
// aggregate engine counters, the compiled-program cache counters, the
// intern table gauge and the per-endpoint blocks after traffic: a cold
// /analyze of matvec, an edited re-run of the same name, which reseeds
// the edit's cone and serves part of it from the store's transfer memo,
// and a repeat of the edit, which reuses its compiled program.
func TestStatsEndpoint(t *testing.T) {
	srv, _ := newServer(t, service.Config{Workers: 2})

	base := benchprog.ByName("matvec").Source
	edited, err := benchprog.TailEditSource(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{base, edited, edited} {
		var resp service.AnalyzeResponse
		code, body := postJSON(t, srv.URL+"/analyze", service.AnalyzeRequest{
			Name:   "matvec",
			Source: src,
		}, &resp)
		if code != http.StatusOK {
			t.Fatalf("analyze: status %d: %s", code, body)
		}
	}

	stats := getStats(t, srv.URL)
	if stats.Store == nil || stats.Store.Snapshots == 0 {
		t.Errorf("stats store block missing or empty: %+v", stats.Store)
	}
	if stats.Analysis.Runs == 0 || stats.Analysis.Visits == 0 {
		t.Errorf("aggregate analysis counters empty: %+v", stats.Analysis)
	}
	if stats.Analysis.StoreMemoHits == 0 || stats.Analysis.ReseededStmts == 0 {
		t.Errorf("edit re-run left the edit-path counters at zero: %+v", stats.Analysis)
	}
	if want := (service.ProgramStats{Hits: 1, Misses: 2, Entries: 2}); stats.Programs != want {
		t.Errorf("program cache counters %+v, want %+v", stats.Programs, want)
	}
	ep, ok := stats.Endpoints["analyze"]
	if !ok || ep.Requests != 3 || ep.OK != 3 {
		t.Errorf("analyze endpoint counters wrong: %+v", ep)
	}
	if ep.TotalUS <= 0 || ep.MaxUS <= 0 {
		t.Errorf("analyze latency counters empty: %+v", ep)
	}
	if _, ok := stats.Endpoints["check"]; !ok {
		t.Errorf("check endpoint block missing")
	}
	if stats.UptimeUS <= 0 {
		t.Errorf("uptime not positive: %d", stats.UptimeUS)
	}

	r, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer r.Body.Close()
	var top map[string]json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&top); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	var interned int
	if err := json.Unmarshal(top["interned_graphs"], &interned); err != nil || interned < 0 {
		t.Errorf("interned_graphs gauge missing or not a count: %s (%v)", top["interned_graphs"], err)
	}
}

// TestBadRequests pins the 4xx paths: junk JSON, empty source, and a
// bogus level never reach the engine.
func TestBadRequests(t *testing.T) {
	srv, _ := newServer(t, service.Config{Workers: 1})

	r, err := http.Post(srv.URL+"/analyze", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("junk JSON: status %d, want 400", r.StatusCode)
	}

	code, _ := postJSON(t, srv.URL+"/analyze", service.AnalyzeRequest{Source: ""}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("empty source: status %d, want 400", code)
	}

	code, _ = postJSON(t, srv.URL+"/analyze", service.AnalyzeRequest{Source: "int main(){}", Level: 9}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("level 9: status %d, want 400", code)
	}

	g, err := http.Get(srv.URL + "/analyze")
	if err != nil {
		t.Fatalf("GET /analyze: %v", err)
	}
	g.Body.Close()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /analyze: status %d, want 405", g.StatusCode)
	}
}
