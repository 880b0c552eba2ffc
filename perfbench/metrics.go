package main

import (
	"fmt"

	"repro/internal/analysis"
)

// layerMetric is one per-layer metric of the traced run. BENCHMARK.json
// lists the same names and units.
type layerMetric struct {
	name, unit string
}

// table1Cells are the Table 1 cells in the paper's order; the lu L2
// cell runs under the 60000-node budget and must abort.
var table1Cells = []struct {
	kernel string
	level  int
}{
	{"matvec", 1}, {"matvec", 2}, {"matvec", 3},
	{"barneshut", 1}, {"barneshut", 2}, {"barneshut", 3},
	{"matmat", 1}, {"matmat", 2},
	{"lu", 1}, {"lu", 2},
}

// cellKey names a cell in metric names, e.g. "lu.L1".
func cellKey(kernel string, level int) string { return fmt.Sprintf("%s.L%d", kernel, level) }

// layerMetrics is every per-layer metric. A workload that does not
// exercise a layer reports 0 for it: that is the work it did there.
var layerMetrics = func() []layerMetric {
	var out []layerMetric
	for _, c := range table1Cells {
		out = append(out, layerMetric{"analysis.run_ms." + cellKey(c.kernel, c.level), "ms"})
	}
	for _, c := range table1Cells {
		out = append(out, layerMetric{"rsg.intern_hit_ratio." + cellKey(c.kernel, c.level), "ratio"})
	}
	return append(out,
		layerMetric{"analysis.visits", "count"},
		layerMetric{"analysis.requeue_ratio", "ratio"},
		layerMetric{"analysis.component_stabilizations", "count"},
		layerMetric{"analysis.widenings", "count"},
		layerMetric{"analysis.delta_transfers", "count"},
		layerMetric{"analysis.parallel_jobs_per_transfer", "ratio"},
		layerMetric{"analysis.peak_nodes", "count"},
		layerMetric{"analysis.peak_graphs", "count"},
		layerMetric{"analysis.reused_statements", "count"},
		layerMetric{"analysis.reseeded_statements", "count"},
		layerMetric{"analysis.store_memo_hits", "count"},
		layerMetric{"rsrsg.dirty_buckets", "count"},
		layerMetric{"rsrsg.dirty_buckets_per_visit", "ratio"},
		layerMetric{"rsg.graphs_frozen", "count"},
		layerMetric{"rsg.digests_computed", "count"},
		layerMetric{"rsg.intern_hit_ratio", "ratio"},
		layerMetric{"rsg.pool_hit_ratio", "ratio"},
		layerMetric{"go.alloc_mb", "MB"},
		layerMetric{"go.gc_cycles", "count"},
		layerMetric{"go.gc_pause_ms", "ms"},
		layerMetric{"go.gc_cycles_per_task", "count"},
		layerMetric{"cminic.parse_ms", "ms"},
		layerMetric{"ir.lower_ms", "ms"},
		layerMetric{"verdict.check_ms", "ms"},
		layerMetric{"verdict.engine_ms", "ms"},
		layerMetric{"verdict.confirm_ms", "ms"},
		layerMetric{"verdict.levels_per_task", "count"},
		layerMetric{"store.open_ms", "ms"},
		layerMetric{"store.append_bytes_per_req", "B"},
		layerMetric{"store.graphs_written", "count"},
		layerMetric{"store.snapshots_written", "count"},
		layerMetric{"service.engine_ms", "ms"},
		layerMetric{"service.overhead_ms", "ms"},
		layerMetric{"service.queued", "count"},
		layerMetric{"service.rejected", "count"},
		layerMetric{"self_ms.bench", "ms"},
		layerMetric{"self_ms.cminic", "ms"},
		layerMetric{"self_ms.ir", "ms"},
		layerMetric{"self_ms.analysis", "ms"},
		layerMetric{"self_ms.verdict", "ms"},
		layerMetric{"self_ms.service", "ms"},
		layerMetric{"trace.overhead_pct", "%"},
		layerMetric{"trace.spans_per_op", "count"},
	)
}()

// engineTotals sums analysis.Stats over the runs of a count batch.
type engineTotals struct {
	visits, requeues, compStabs, widenings    int
	deltaTransfers, dirtyBuckets              int
	parallelTransfers, parallelJobs           int
	peakNodes, peakGraphs                     int
	reused, reseeded, storeMemoHits           int
	frozen, digests, internHits, internMisses uint64
	poolGets, poolNews                        uint64
}

func (e *engineTotals) add(s *analysis.Stats) {
	e.visits += s.Visits
	e.requeues += s.Requeues
	e.compStabs += s.ComponentStabilizations
	e.widenings += s.Widenings
	e.deltaTransfers += s.DeltaTransfers
	e.dirtyBuckets += s.DirtyBuckets
	e.parallelTransfers += s.ParallelTransfers
	e.parallelJobs += s.ParallelJobs
	e.peakNodes = max(e.peakNodes, s.PeakNodes)
	e.peakGraphs = max(e.peakGraphs, s.PeakGraphs)
	e.reused += s.ReusedStatements
	e.reseeded += s.ReseededStatements
	e.storeMemoHits += s.StoreMemoHits
	e.frozen += s.Cache.GraphsFrozen
	e.digests += s.Cache.DigestsComputed
	e.internHits += s.Cache.InternHits
	e.internMisses += s.Cache.InternMisses
	e.poolGets += s.Cache.PoolGets
	e.poolNews += s.Cache.PoolNews
}

// file records the engine, rsrsg and rsg layers' metrics.
func (e *engineTotals) file(layers map[string]float64) {
	layers["analysis.visits"] = float64(e.visits)
	layers["analysis.requeue_ratio"] = ratio(float64(e.requeues), float64(e.visits))
	layers["analysis.component_stabilizations"] = float64(e.compStabs)
	layers["analysis.widenings"] = float64(e.widenings)
	layers["analysis.delta_transfers"] = float64(e.deltaTransfers)
	layers["analysis.parallel_jobs_per_transfer"] = ratio(float64(e.parallelJobs), float64(e.parallelTransfers))
	layers["analysis.peak_nodes"] = float64(e.peakNodes)
	layers["analysis.peak_graphs"] = float64(e.peakGraphs)
	layers["analysis.reused_statements"] = float64(e.reused)
	layers["analysis.reseeded_statements"] = float64(e.reseeded)
	layers["analysis.store_memo_hits"] = float64(e.storeMemoHits)
	layers["rsrsg.dirty_buckets"] = float64(e.dirtyBuckets)
	layers["rsrsg.dirty_buckets_per_visit"] = ratio(float64(e.dirtyBuckets), float64(e.visits))
	layers["rsg.graphs_frozen"] = float64(e.frozen)
	layers["rsg.digests_computed"] = float64(e.digests)
	layers["rsg.intern_hit_ratio"] = internHitRatio(e.internHits, e.internMisses)
	layers["rsg.pool_hit_ratio"] = ratio(float64(e.poolGets-e.poolNews), float64(e.poolGets))
}

func internHitRatio(hits, misses uint64) float64 {
	return ratio(float64(hits), float64(hits+misses))
}
