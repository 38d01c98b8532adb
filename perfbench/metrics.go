package main

import (
	multimap "repro"
	"repro/internal/server"
)

// metricDef names one reported metric. The lists below are the single
// source of the names and units printed; BENCHMARK.json must list the
// same ones (the package tests hold the two together).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd metrics are what a user of the store or daemon sees. Every
// workload reports every one of them, so each is defined for a scan, a
// wire session and an in-process session alike. They are medians:
// closed-loop throughput and latency tails also move with stalls the
// host imposes from outside (on a shared 2-vCPU host, hot-wire's ops/s
// spread 0.5 across seeds while its median latency spread 0.14), so the
// throughputs are per-layer host metrics and the tails are printed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"first_chunk_p50_ms", "ms", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// perLayer metrics come from the traced run. A layer a workload
// bypasses reports 0.
var perLayer = []metricDef{
	{"sfc.rank_build_s", "s", "lower"},
	{"sfc.key_ns", "ns", "lower"},
	{"mapping.build_s", "s", "lower"},
	{"mapping.box_ns_per_cell", "ns", "lower"},
	{"mapping.reqs_per_cell", "count", "lower"},
	{"query.plan_ns_per_cell", "ns", "lower"},
	{"query.chunks_per_op", "count", "lower"},
	{"query.padding_frac", "frac", "lower"},
	{"disk.serve_ns_per_req", "ns", "lower"},
	{"disk.reqs_per_batch", "count", "higher"},
	{"disk.seek_ms_per_cell", "ms", "lower"},
	{"disk.rotate_ms_per_cell", "ms", "lower"},
	{"disk.transfer_ms_per_cell", "ms", "lower"},
	{"disk.sim_ms_per_cell", "ms", "lower"},
	{"disk.sim_ms_per_cell.naive", "ms", "lower"},
	{"disk.sim_ms_per_cell.zorder", "ms", "lower"},
	{"disk.sim_ms_per_cell.hilbert", "ms", "lower"},
	{"disk.sim_ms_per_op", "ms", "lower"},
	{"engine.op_us", "us", "lower"},
	{"engine.read_p99_ms", "ms", "lower"},
	{"engine.write_p50_ms", "ms", "lower"},
	{"engine.write_p99_ms", "ms", "lower"},
	{"engine.batches_per_op", "count", "lower"},
	{"engine.merged_batch_frac", "frac", "higher"},
	{"engine.max_batch_chunks", "count", "higher"},
	{"engine.issued_reqs_per_op", "count", "lower"},
	{"engine.cache_hit_rate", "frac", "higher"},
	{"engine.invalidated_blocks_per_write", "count", "lower"},
	{"engine.flushes_per_1k_writes", "count", "lower"},
	{"engine.coalesced_write_frac", "frac", "higher"},
	{"engine.deferred_frac.interactive", "frac", "lower"},
	{"engine.deferred_frac.bulk", "frac", "lower"},
	{"engine.deferred_frac.writer", "frac", "lower"},
	{"engine.queue_depth_p50", "count", "lower"},
	{"engine.queue_depth_p99", "count", "lower"},
	{"shard.parts_per_op", "count", "lower"},
	{"shard.imbalance", "ratio", "lower"},
	{"core.reorgs_per_1k_writes", "count", "lower"},
	{"server.overhead_us_per_op", "us", "lower"},
	{"server.bytes_per_op", "B", "lower"},
	{"server.first_chunk_frac", "frac", "lower"},
	{"host.ops_per_s", "1/s", "higher"},
	{"host.cells_per_s", "1/s", "higher"},
	{"host.cpu_s_per_op", "s", "lower"},
	{"host.allocs_per_op", "count", "lower"},
	{"host.gc_cpu_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// engineTotals is the slice of a store's serving bookkeeping the
// engine metrics use, read either from Store.Metrics or from the
// daemon's metrics endpoint.
type engineTotals struct {
	batches, merged, issued        int64
	maxBatch                       int
	writeOps, invalidated, flushes int64
	coalesced, hits, misses        int64
	simMs                          float64
	classOps, classDeferred        map[string]int64
}

// totalsOf reads a store's service totals and its ClassTotals.
func totalsOf(t multimap.ServiceTotals, classes []multimap.ClassTotals) engineTotals {
	e := engineTotals{
		batches: t.Batches, merged: t.MergedBatches, issued: t.IssuedRequests, maxBatch: t.MaxBatchChunks,
		writeOps: t.WriteOps, invalidated: t.InvalidatedBlocks, flushes: t.FlushBatches,
		coalesced: t.CoalescedWrites, hits: t.Attributed.CacheHits, misses: t.Attributed.CacheMisses,
		simMs: t.Attributed.TotalMs, classOps: map[string]int64{}, classDeferred: map[string]int64{},
	}
	for _, c := range classes {
		e.classOps[c.Class] += c.Ops
		e.classDeferred[c.Class] += c.Deferred
	}
	return e
}

// totalsOfWire reads the same figures from the daemon's metrics
// document.
func totalsOfWire(m server.MetricsWire) engineTotals {
	t := m.Totals
	var classes []multimap.ClassTotals
	for _, c := range m.Classes {
		classes = append(classes, multimap.ClassTotals{Class: c.Class, Ops: c.Ops, Deferred: c.Deferred})
	}
	return totalsOf(multimap.ServiceTotals{
		Batches: t.Batches, MergedBatches: t.MergedBatches, MaxBatchChunks: t.MaxBatchChunks,
		IssuedRequests: t.IssuedRequests, WriteOps: t.WriteOps, InvalidatedBlocks: t.InvalidatedBlocks,
		FlushBatches: t.FlushBatches, CoalescedWrites: t.CoalescedWrites, Attributed: t.Attributed.Stats(),
	}, classes)
}

// add sums totals of several stores (MaxBatchChunks takes the
// maximum). The sum's class maps are new, so neither operand changes.
func (e engineTotals) add(o engineTotals) engineTotals {
	e.batches += o.batches
	e.merged += o.merged
	e.issued += o.issued
	e.maxBatch = max(e.maxBatch, o.maxBatch)
	e.writeOps += o.writeOps
	e.invalidated += o.invalidated
	e.flushes += o.flushes
	e.coalesced += o.coalesced
	e.hits += o.hits
	e.misses += o.misses
	e.simMs += o.simMs
	ops, deferred := map[string]int64{}, map[string]int64{}
	for _, t := range []engineTotals{e, o} {
		for k, v := range t.classOps {
			ops[k] += v
		}
		for k, v := range t.classDeferred {
			deferred[k] += v
		}
	}
	e.classOps, e.classDeferred = ops, deferred
	return e
}

// engineMetrics records the engine metrics of a phase that ran ops
// operations (writes of them inserts) between the before and after
// snapshots.
func engineMetrics(m map[string]float64, before, after engineTotals, ops int64) {
	n := float64(ops)
	batches := float64(after.batches - before.batches)
	writes := float64(after.writeOps - before.writeOps)
	m["engine.batches_per_op"] = ratio(batches, n)
	m["engine.merged_batch_frac"] = ratio(float64(after.merged-before.merged), batches)
	m["engine.max_batch_chunks"] = float64(after.maxBatch)
	m["engine.issued_reqs_per_op"] = ratio(float64(after.issued-before.issued), n)
	hits := float64(after.hits - before.hits)
	m["engine.cache_hit_rate"] = ratio(hits, hits+float64(after.misses-before.misses))
	m["engine.invalidated_blocks_per_write"] = ratio(float64(after.invalidated-before.invalidated), writes)
	m["engine.flushes_per_1k_writes"] = 1000 * ratio(float64(after.flushes-before.flushes), writes)
	m["engine.coalesced_write_frac"] = ratio(float64(after.coalesced-before.coalesced), writes)
	m["disk.sim_ms_per_op"] = ratio(after.simMs-before.simMs, n)
	for _, c := range []string{"interactive", "bulk", "writer"} {
		m["engine.deferred_frac."+c] = ratio(float64(after.classDeferred[c]-before.classDeferred[c]),
			float64(after.classOps[c]-before.classOps[c]))
	}
}

// imbalance is max ÷ mean of the requests each shard issued (0 when
// none issued any).
func imbalance(totals []multimap.ServiceTotals) float64 {
	var sum, most int64
	for _, t := range totals {
		sum += t.IssuedRequests
		most = max(most, t.IssuedRequests)
	}
	return ratio(float64(most), float64(sum)/float64(len(totals)))
}
