package engine

import (
	"sort"
	"time"

	"repro/internal/lvm"
)

// Write-back caching with group commit. With WriteBackOptions.Enabled,
// the service loop no longer charges each write op its own simulated
// I/O: the op's mutated extents are absorbed into a per-service dirty
// buffer (repeated writes to the same extent coalesce), and the whole
// dirty set is later flushed as ONE SPTF-scheduled batch — amortizing
// disk positioning across spatially adjacent writes exactly as the
// paper's SPTF batching amortizes it across reads. A flush happens
// when any of five triggers fires:
//
//   - watermark: the dirty buffer reaches WatermarkBlocks;
//   - interval: the oldest dirty extent has been buffered for
//     FlushInterval (the loop stays alive, sleeping, while dirty data
//     is pending so the interval fires even on an otherwise idle
//     service);
//   - read dependency: an admitted read overlaps a dirty extent — the
//     dirty set is flushed before the read is served, so a read never
//     observes a disk state older than an acknowledged write;
//   - explicit Flush(ctx);
//   - Close (service close drains the dirty set before the loop
//     exits).
//
// Coherence is unchanged from write-through: absorbing a write still
// invalidates every cached read extent overlapping the mutated blocks
// (and a cancelled write still invalidates without being buffered), so
// no stale cached cost can be replayed; the only thing deferred is the
// write's own simulated I/O.
//
// Cost attribution: a write op's submitter is acknowledged at absorb
// time with zero I/O cost; the flush batch's cost is attributed to the
// sessions whose buffered writes it commits, per dirty extent in
// proportion to the blocks each asked for (the same split merged read
// batches use for shared extents), and folded into their lifetime
// Totals. Summing session Totals therefore still reproduces
// ServiceTotals.Attributed for issued work, ElapsedMs aside.

// WriteBackOptions tunes the service's write-back buffer; see
// ServiceOptions.WriteBack.
type WriteBackOptions struct {
	// Enabled turns write-back on. Off (the default) serves every
	// write op immediately — bit-identical to the write-through
	// service.
	Enabled bool
	// WatermarkBlocks flushes the dirty buffer when it reaches this
	// many blocks. 0 selects DefaultWriteBackWatermark.
	WatermarkBlocks int64
	// FlushInterval flushes dirty extents this long after they first
	// became dirty, bounding how long an acknowledged write may stay
	// uncommitted. 0 selects DefaultWriteBackInterval.
	FlushInterval time.Duration
}

// Default write-back knobs, applied when the corresponding
// WriteBackOptions field is zero.
const (
	DefaultWriteBackWatermark = int64(4096)
	DefaultWriteBackInterval  = 2 * time.Millisecond
)

// withDefaults fills zero knobs.
func (o WriteBackOptions) withDefaults() WriteBackOptions {
	if o.WatermarkBlocks <= 0 {
		o.WatermarkBlocks = DefaultWriteBackWatermark
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = DefaultWriteBackInterval
	}
	return o
}

// dirtyExtent is one buffered run of mutated blocks [start, end),
// clipped to a single disk segment (boundary is the segment's end
// VLBN, so extents never merge across member disks). contribs records
// how many blocks each submitting session asked to write here —
// re-writes of already-dirty blocks count again, mirroring how merged
// read batches credit overlapping readers — and since is when the
// extent first became dirty (merging keeps the oldest timestamp, so
// the interval trigger bounds the oldest buffered write).
type dirtyExtent struct {
	start, end int64
	boundary   int64
	since      time.Time
	contribs   map[*Session]int64
}

// dirtySet is the loop-owned write-back buffer: sorted disjoint dirty
// extents plus the running block total. Only the service loop touches
// it, so it needs no locking of its own.
type dirtySet struct {
	extents []*dirtyExtent // ascending by start; disjoint
	blocks  int64
}

// search returns the index of the first extent with start > x.
func (d *dirtySet) search(x int64) int {
	return sort.Search(len(d.extents), func(i int) bool { return d.extents[i].start > x })
}

// overlaps reports whether any request intersects a dirty extent — the
// read-dependency probe.
func (d *dirtySet) overlaps(reqs []lvm.Request) bool {
	if len(d.extents) == 0 {
		return false
	}
	for _, r := range reqs {
		start, end := r.VLBN, r.VLBN+int64(r.Count)
		i := d.search(start) - 1
		if i >= 0 && d.extents[i].end > start {
			return true
		}
		if i+1 < len(d.extents) && d.extents[i+1].start < end {
			return true
		}
	}
	return false
}

// absorb merges one segment-clipped mutated extent into the buffer on
// behalf of owner, returning whether it coalesced with (overlapped or
// sat adjacent to) an already-dirty extent in the same segment.
// Adjacent extents from different segments stay separate — each flush
// request must lie within one member disk.
func (d *dirtySet) absorb(owner *Session, start, end, boundary int64, now time.Time) bool {
	if end <= start {
		return false
	}
	lo := d.search(start - 1)
	if lo > 0 && d.extents[lo-1].end >= start && d.extents[lo-1].boundary == boundary {
		lo--
	}
	hi := lo
	merged := &dirtyExtent{
		start: start, end: end, boundary: boundary, since: now,
		contribs: map[*Session]int64{owner: end - start},
	}
	coalesced := false
	for hi < len(d.extents) && d.extents[hi].start <= end {
		e := d.extents[hi]
		if e.boundary != boundary {
			break
		}
		coalesced = true
		if e.start < merged.start {
			merged.start = e.start
		}
		if e.end > merged.end {
			merged.end = e.end
		}
		if e.since.Before(merged.since) {
			merged.since = e.since
		}
		for s, n := range e.contribs {
			merged.contribs[s] += n
		}
		d.blocks -= e.end - e.start
		hi++
	}
	if hi > lo {
		d.extents[lo] = merged
		d.extents = append(d.extents[:lo+1], d.extents[hi:]...)
	} else {
		d.extents = append(d.extents, nil)
		copy(d.extents[lo+1:], d.extents[lo:])
		d.extents[lo] = merged
	}
	d.blocks += merged.end - merged.start
	return coalesced
}

// oldest returns the earliest since timestamp of a dirty extent; ok is
// false on an empty buffer.
func (d *dirtySet) oldest() (time.Time, bool) {
	var t time.Time
	ok := false
	for _, e := range d.extents {
		if !ok || e.since.Before(t) {
			t, ok = e.since, true
		}
	}
	return t, ok
}

// take empties the buffer and returns its extents in ascending VLBN
// order — the group-commit batch to be flushed.
func (d *dirtySet) take() []*dirtyExtent {
	out := d.extents
	d.extents = nil
	d.blocks = 0
	return out
}
