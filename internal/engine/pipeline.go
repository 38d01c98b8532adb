package engine

// Pipelined batch dispatch — the opt-in overlap stage between the
// service loop's schedule stage and the disks.
//
// The service is an explicit staged pipeline:
//
//	admit ──► schedule ──► dispatch ──► complete/attribute
//	(queue)   (QoS, coalesce,  (per-disk      (cache insert,
//	          cache probe,      completion     cost attribution,
//	          write-back)       queues)        replies)
//
// Every read batch takes the same plan path (dispatchSingle or
// dispatchMerged); only the dispatch step differs with depth. At
// Pipeline depth 0 (the default) the stages run in lockstep on the
// loop goroutine and dispatch is one inline ServeBatch call. At depth
// N >= 1 the dispatch stage fans each planned read batch out per
// member drive to a persistent dispatcher goroutine (one per drive,
// FIFO input queue), and the schedule stage keeps admitting and
// planning batch N+1 while up to N batches' I/O is in flight. Each
// drive's dispatcher serves its sub-batches in dispatch order, so
// per-drive head-state evolution matches the lockstep schedule;
// batches retire strictly in dispatch order on the loop goroutine,
// which alone performs the completion stage (cache insertion,
// attribution, traces, replies).
//
// # Coherence contract
//
// The schedule stage remains the sole owner of the extent cache, the
// write-back dirty set, and the COW fault path. The invariants:
//
//   - A read overlapping any in-flight batch's to-be-inserted extents
//     stalls (drains the pipeline) before its cache probe, so it
//     observes the same cache state the lockstep schedule would.
//   - A write overlapping any in-flight batch's extents stalls before
//     its invalidation, so invalidation is never reordered ahead of an
//     earlier read's insertion (read-your-write preserved). Cancelled
//     writes stall the same way before their invalidation.
//   - Any operation that performs I/O on the loop goroutine —
//     write-through writes, COW faults, group-commit flushes, control
//     ops — is a pipeline barrier: all in-flight batches drain first,
//     keeping every drive's service order identical to admission
//     order. Write-back absorption of a non-overlapping, non-COW
//     write is acknowledged without stalling (it performs no I/O).
//   - Cancellation drops not-yet-dispatched work without simulated
//     cost, exactly as at depth 0; dispatched work always completes
//     and is attributed.
//
// Per-session attribution is unchanged: completion-stage accounting
// runs the same code at every depth, so session and class Stats still
// sum to ServiceTotals.Attributed.

import (
	"sort"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// span is a half-open block range [start, end) in volume LBN space.
type span struct{ start, end int64 }

// partResult is one drive sub-batch's outcome, written by that drive's
// dispatcher goroutine and read by the loop after the part's
// completion token has been received.
type partResult struct {
	comps   []lvm.Completion
	elapsed float64
	err     error
}

// dispatchPart is one per-drive share of an in-flight batch.
type dispatchPart struct {
	fb     *flightBatch
	slot   int
	reqs   []lvm.Request
	policy disk.SchedPolicy
}

// flightBatch is one dispatched admission batch awaiting completion.
// All fields except parts slots are owned by the loop goroutine.
type flightBatch struct {
	// Single-chunk batch state (mp nil): the op, its probe result, and
	// how many requests were issued.
	op     *serviceOp
	res    opResult
	issued int

	// Merged batch state (op nil).
	mp *mergedPlan

	parts     []partResult
	remaining int
	// spans are the extents this batch will insert into the cache on
	// completion (its dispatched requests), sorted and merged — the
	// stall set later reads and writes are checked against.
	spans []span
}

// overlaps reports whether [start, end) intersects the batch's spans.
func (fb *flightBatch) overlaps(start, end int64) bool {
	i := sort.Search(len(fb.spans), func(i int) bool { return fb.spans[i].end > start })
	return i < len(fb.spans) && fb.spans[i].start < end
}

// pipelineState is the loop-owned dispatch-stage state: per-drive
// dispatcher input queues, the shared completion queue, and the FIFO
// of in-flight batches.
type pipelineState struct {
	dispatchers map[*disk.Disk]chan dispatchPart
	running     int
	stopped     chan struct{} // closed dispatchers signal here on exit
	done        chan *flightBatch
	inflight    []*flightBatch
}

// spansOf builds the sorted, merged stall set of a request list.
func spansOf(reqs []lvm.Request) []span {
	spans := make([]span, 0, len(reqs))
	for _, r := range reqs {
		spans = append(spans, span{r.VLBN, r.VLBN + int64(r.Count)})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	out := spans[:0]
	for _, sp := range spans {
		if n := len(out); n > 0 && sp.start <= out[n-1].end {
			if sp.end > out[n-1].end {
				out[n-1].end = sp.end
			}
			continue
		}
		out = append(out, sp)
	}
	return out
}

// plOverlaps reports whether any request overlaps an in-flight batch's
// to-be-inserted extents — the stall predicate. Always false with
// nothing in flight (in particular at depth 0 and with the cache off,
// where the stall sets are empty).
func (s *Service) plOverlaps(reqs []lvm.Request) bool {
	for _, fb := range s.pl.inflight {
		if len(fb.spans) == 0 {
			continue
		}
		for _, r := range reqs {
			if fb.overlaps(r.VLBN, r.VLBN+int64(r.Count)) {
				return true
			}
		}
	}
	return false
}

// plDrain retires every in-flight batch in dispatch order — the
// pipeline barrier. A no-op with nothing in flight, so barrier call
// sites need no depth guard.
func (s *Service) plDrain() {
	for len(s.pl.inflight) > 0 {
		s.plRetireOne()
	}
}

// plRetireOne blocks until the oldest in-flight batch has completed,
// then runs its completion stage on the loop goroutine. Completion
// tokens for younger batches received while waiting are folded into
// their counters, but batches always retire in dispatch order.
func (s *Service) plRetireOne() {
	head := s.pl.inflight[0]
	for head.remaining > 0 {
		fb := <-s.pl.done
		fb.remaining--
	}
	s.plPopHead()
}

// plPopHead pops the completed head batch and finishes it.
func (s *Service) plPopHead() {
	head := s.pl.inflight[0]
	copy(s.pl.inflight, s.pl.inflight[1:])
	s.pl.inflight[len(s.pl.inflight)-1] = nil
	s.pl.inflight = s.pl.inflight[:len(s.pl.inflight)-1]
	s.plFinish(head)
}

// plAwait parks an idle-queue loop that still has batches in flight:
// it wakes on the next completion token (retiring any batches that
// completed, in order) or on a wake signal (new submission, Close).
func (s *Service) plAwait() {
	select {
	case fb := <-s.pl.done:
		fb.remaining--
		for len(s.pl.inflight) > 0 && s.pl.inflight[0].remaining == 0 {
			s.plPopHead()
		}
	case <-s.wake:
	}
}

// plFinish runs one batch's completion stage: fold the per-drive part
// results (elapsed is the max over parts, exactly ServeBatch's
// max-over-busy-drives), then hand off to the plan's finish path.
func (s *Service) plFinish(fb *flightBatch) {
	var err error
	var elapsed float64
	n := 0
	for i := range fb.parts {
		p := &fb.parts[i]
		if p.err != nil && err == nil {
			err = p.err
		}
		if p.elapsed > elapsed {
			elapsed = p.elapsed
		}
		n += len(p.comps)
	}
	var comps []lvm.Completion
	if err == nil {
		comps = make([]lvm.Completion, 0, n)
		for i := range fb.parts {
			comps = append(comps, fb.parts[i].comps...)
		}
	}
	s.complete(fb, comps, elapsed, err)
}

// plPartition splits a request list into per-drive sub-batches in
// first-seen drive order (deterministic slot assignment). Returns
// ok=false when any request fails to locate — the caller serves the
// batch inline so the address error surfaces exactly as at depth 0.
func (s *Service) plPartition(reqs []lvm.Request) (parts [][]lvm.Request, drives []*disk.Disk, ok bool) {
	slot := make(map[*disk.Disk]int)
	for _, r := range reqs {
		si, _, err := s.vol.Locate(r.VLBN)
		if err != nil {
			return nil, nil, false
		}
		d := s.vol.Disk(si)
		k, seen := slot[d]
		if !seen {
			k = len(parts)
			slot[d] = k
			parts = append(parts, nil)
			drives = append(drives, d)
		}
		parts[k] = append(parts[k], r)
	}
	return parts, drives, true
}

// plLaunch registers one planned batch as in flight and fans its parts
// out to the per-drive dispatchers, retiring the oldest batch first
// when the pipeline is at depth. Dispatcher input queues have capacity
// depth, and at most depth batches (each contributing at most one part
// per drive) are ever in flight, so the sends below never block.
func (s *Service) plLaunch(depth int, fb *flightBatch, parts [][]lvm.Request, drives []*disk.Disk, policy disk.SchedPolicy) {
	for len(s.pl.inflight) >= depth {
		s.plRetireOne()
	}
	if s.pl.done == nil {
		s.pl.done = make(chan *flightBatch, 16)
	}
	fb.parts = make([]partResult, len(parts))
	fb.remaining = len(parts)
	s.pl.inflight = append(s.pl.inflight, fb)
	for i, reqs := range parts {
		s.plDispatcher(drives[i], depth) <- dispatchPart{fb: fb, slot: i, reqs: reqs, policy: policy}
	}
}

// plDispatcher returns drive d's dispatcher input queue, starting the
// dispatcher goroutine on first use. Dispatchers persist for the loop
// goroutine's lifetime and are retired with it (plShutdown), so an
// idle service holds no goroutines.
func (s *Service) plDispatcher(d *disk.Disk, depth int) chan dispatchPart {
	ch := s.pl.dispatchers[d]
	if ch == nil {
		if s.pl.dispatchers == nil {
			s.pl.dispatchers = make(map[*disk.Disk]chan dispatchPart)
			s.pl.stopped = make(chan struct{})
		}
		ch = make(chan dispatchPart, depth)
		s.pl.dispatchers[d] = ch
		s.pl.running++
		go s.plRun(ch)
	}
	return ch
}

// plRun is one drive's dispatcher goroutine: serve each queued part —
// every request in a part lies on this dispatcher's drive, and
// lvm.ServeBatch serializes per drive, so concurrent dispatchers never
// interleave on one head — then post the part's completion token.
func (s *Service) plRun(ch chan dispatchPart) {
	for part := range ch {
		comps, elapsed, err := s.vol.ServeBatch(part.reqs, part.policy)
		part.fb.parts[part.slot] = partResult{comps: comps, elapsed: elapsed, err: err}
		s.pl.done <- part.fb
	}
	s.pl.stopped <- struct{}{}
}

// plShutdown retires every dispatcher goroutine. Callers guarantee
// nothing is in flight (pipeline drained), so the dispatchers are idle
// and exit promptly.
func (s *Service) plShutdown() {
	if s.pl.dispatchers == nil {
		return
	}
	for _, ch := range s.pl.dispatchers {
		close(ch)
	}
	for i := 0; i < s.pl.running; i++ {
		<-s.pl.stopped
	}
	s.pl.dispatchers = nil
	s.pl.running = 0
}

// dispatchSingle is a lone read chunk's plan path: stall behind any
// in-flight batch it overlaps, probe the cache, and dispatch the
// survivors as the requests the planner chose, under the chunk's own
// policy, with no re-coalescing. With the cache off and at depth 0
// this is bit-identical to the synchronous engine.
func (s *Service) dispatchSingle(depth int, op *serviceOp) {
	if s.plOverlaps(op.chunk.Reqs) {
		s.plDrain()
	}
	var res opResult
	kept := s.planSingle(op, &res, depth == 0)
	if len(kept) == 0 {
		s.finishSingle(op, res, 0, nil, 0)
		return
	}
	s.dispatch(depth, flightBatch{op: op, res: res, issued: len(kept)}, kept, op.policy)
}

// dispatchMerged is a multi-chunk read batch's plan path: stall behind
// any in-flight batch it overlaps, coalesce the chunks' requests across
// queries into shared extents, and dispatch those.
func (s *Service) dispatchMerged(depth int, items []*serviceOp) {
	for _, it := range items {
		if s.plOverlaps(it.chunk.Reqs) {
			s.plDrain()
			break
		}
	}
	mp := &s.scratch.merge
	if depth > 0 {
		// The plan must survive until completion alongside other
		// in-flight merged batches, so it gets its own buffers.
		items, mp = append([]*serviceOp(nil), items...), &mergedPlan{}
	}
	if !s.planMerged(items, mp) {
		return // planMerged already replied with the error
	}
	if len(mp.reqs) == 0 {
		s.finishMerged(mp, nil, 0)
		return
	}
	s.dispatch(depth, flightBatch{mp: mp}, mp.reqs, mp.policy)
}

// dispatch is a planned batch's dispatch step. At depth 0 it serves
// the unpartitioned requests inline with one ServeBatch call, keeping
// completion order and float sums bit-identical to the synchronous
// engine. At depth > 0 it fans them out to the per-drive dispatchers,
// unless a request fails to locate: then the batch is served inline
// behind a pipeline barrier, so the error surfaces as at depth 0.
func (s *Service) dispatch(depth int, fb flightBatch, reqs []lvm.Request, policy disk.SchedPolicy) {
	if depth > 0 {
		if parts, drives, ok := s.plPartition(reqs); ok {
			p := new(flightBatch)
			*p = fb
			p.spans = spansOf(reqs)
			s.plLaunch(depth, p, parts, drives, policy)
			return
		}
		s.plDrain()
	}
	comps, elapsed, err := s.vol.ServeBatch(reqs, policy)
	s.complete(&fb, comps, elapsed, err)
}

// complete is a served batch's completion stage, inline or pipelined:
// reply the error to every op of a failed batch, otherwise hand the
// completions to the plan's finish path.
func (s *Service) complete(fb *flightBatch, comps []lvm.Completion, elapsed float64, err error) {
	switch {
	case err != nil && fb.mp != nil:
		fb.mp.fail(err)
	case err != nil:
		fb.op.reply <- opResult{err: err}
	case fb.mp != nil:
		s.finishMerged(fb.mp, comps, elapsed)
	default:
		s.finishSingle(fb.op, fb.res, fb.issued, comps, elapsed)
	}
}
