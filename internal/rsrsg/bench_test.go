package rsrsg_test

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/rsg"
	"repro/internal/rsrsg"
)

// The layer benchmarks run the bucket reductions on kernel-sized input:
// the distinct graphs of every statement's out-state at the barneshut
// L1 fixed point. They live in the external test package so that they
// can run the analysis.

var (
	outStatesOnce sync.Once
	outStates     []*rsg.Graph
	outStatesErr  error
)

// barnesOutStates returns the distinct out-state graphs of a barneshut
// L1 run, ordered by digest. The run is made once per process.
func barnesOutStates(b *testing.B) []*rsg.Graph {
	outStatesOnce.Do(func() {
		prog, err := benchprog.ByName("barneshut").Compile()
		if err != nil {
			outStatesErr = err
			return
		}
		res, err := analysis.Run(prog, analysis.Options{Level: rsg.L1})
		if err != nil {
			outStatesErr = err
			return
		}
		seen := map[rsg.Digest]*rsg.Graph{}
		for _, set := range res.Out {
			set.ForEachEntry(func(g *rsg.Graph, d rsg.Digest) { seen[d] = g })
		}
		for _, g := range seen {
			outStates = append(outStates, g)
		}
		sort.Slice(outStates, func(i, j int) bool { return outStates[i].Digest().Less(outStates[j].Digest()) })
	})
	if outStatesErr != nil {
		b.Fatal(outStatesErr)
	}
	return outStates
}

// barnesParts deals the out-state graphs round-robin into n unreduced
// sets, standing in for the transfer parts and contributions a
// statement receives.
func barnesParts(b *testing.B, n int) []*rsrsg.Set {
	parts := make([]*rsrsg.Set, n)
	for i := range parts {
		parts[i] = rsrsg.New()
	}
	for i, g := range barnesOutStates(b) {
		parts[i%n].Add(g)
	}
	return parts
}

// BenchmarkReduce reduces one unreduced set holding every out-state
// graph: each alias bucket joins until no two members are compatible.
func BenchmarkReduce(b *testing.B) {
	all := rsrsg.New()
	for _, g := range barnesOutStates(b) {
		all.Add(g)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := all.Clone()
		b.StartTimer()
		s.Reduce(rsg.L1, rsrsg.Options{})
	}
}

// BenchmarkMergeDeltaBatch folds the out-state graphs into an empty
// in-state two contributions per batch, as a visit merges its
// predecessors' out-states, with a join cache per iteration as the
// engine keeps one per run.
func BenchmarkMergeDeltaBatch(b *testing.B) {
	parts := barnesParts(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := rsrsg.Options{Joins: rsrsg.NewJoinCache()}
		in := rsrsg.New()
		for k := 0; k+1 < len(parts); k += 2 {
			in.MergeDeltaBatch(rsg.L1, parts[k:k+2], opts)
		}
	}
}

// BenchmarkAccumMergeDeltaDirty adds the out-state graphs to an
// accumulator one part per call, then retracts every other part, so
// each call re-reduces the alias buckets the part touches.
func BenchmarkAccumMergeDeltaDirty(b *testing.B) {
	parts := barnesParts(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := rsrsg.Options{Joins: rsrsg.NewJoinCache()}
		acc := rsrsg.NewAccum(rsg.L1)
		for _, p := range parts {
			acc.MergeDeltaDirty([]*rsrsg.Set{p}, nil, opts)
		}
		for k := 0; k < len(parts); k += 2 {
			acc.MergeDeltaDirty(nil, []*rsrsg.Set{parts[k]}, opts)
		}
	}
}
