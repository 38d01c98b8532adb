package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	multimap "repro"
	"repro/internal/query"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	clients  int
	outDir   string
	// small shrinks every dataset and the set-up repetitions so the
	// package tests can run each workload in well under a second.
	small bool
}

func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// Set-up is repeated so setup_s is a median: at least minSetupReps
// builds, more while they total under setupBudget, at most maxSetupReps.
const (
	minSetupReps = 3
	maxSetupReps = 50
	setupBudget  = 2 * time.Second
)

type opKind int

const (
	opRange opKind = iota
	opBeam
	opInsert
)

// op is one generated client request.
type op struct {
	kind   opKind
	class  string // QoS class of the session that issues it ("" = default)
	lo, hi []int  // range box [lo, hi)
	dim    int    // beam dimension
	fixed  []int  // beam coordinates
	cell   []int  // insert target
	cells  int64  // useful cells a read must return
}

// box is the op's query box: the range itself, or the beam's line.
func (o *op) box(dims []int) (lo, hi []int) {
	if o.kind == opRange {
		return o.lo, o.hi
	}
	lo, hi, _ = query.BeamBox(dims, o.dim, o.fixed) // generated beams are always in range
	return lo, hi
}

func (o *op) read() bool { return o.kind != opInsert }

func boxCells(lo, hi []int) int64 {
	n := int64(1)
	for i := range lo {
		n *= int64(hi[i] - lo[i])
	}
	return n
}

func rangeOp(lo, hi []int, class string) op {
	return op{kind: opRange, class: class, lo: lo, hi: hi, cells: boxCells(lo, hi)}
}

func beamOp(dims []int, dim int, fixed []int, class string) op {
	return op{kind: opBeam, class: class, dim: dim, fixed: fixed, cells: int64(dims[dim])}
}

// sample is the outcome of one timed op. Samples are folded into a
// tally as they complete, so the benchmark's own memory stays small
// next to the system's.
type sample struct {
	op    *op
	lat   time.Duration // host latency of the call
	first time.Duration // time to the first result chunk (ranges)
	st    multimap.Stats
	err   error
}

// closedLoop runs one goroutine per op list. Each client issues its
// list in order, cycling, and sends its next op only after the previous
// one returned, until dur has elapsed. Throughput is counted in
// rateWindow windows of completion time. It returns the merged tally
// and each client's own; with keepOrder, a client's order field holds
// its latencies in issue order.
func closedLoop(dur time.Duration, lists [][]op, keepOrder bool, countRead func(*op) bool, do func(client int, o *op) sample) (*tally, []*tally) {
	per := make([]*tally, len(lists))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range lists {
		per[c] = &tally{keepOrder: keepOrder}
		wg.Add(1)
		go func(t *tally, ops []op) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				s := do(c, &ops[i%len(ops)])
				t.add(s, countRead)
				t.window(s, time.Since(start))
			}
		}(per[c], lists[c])
	}
	wg.Wait()
	wall := time.Since(start)
	full := int(wall / rateWindow)
	t := &tally{}
	for _, c := range per {
		t.merge(c, full)
	}
	if full == 0 {
		// Shorter than one window: the whole phase is one segment.
		t.segs = []segment{{dur: wall}}
		for _, c := range per {
			for _, g := range c.segs {
				t.segs[0].ops += g.ops
				t.segs[0].cells += g.cells
			}
		}
	}
	return t, per
}

// timedRange runs a streamed range query and records time to the first
// chunk as well as the whole call.
func timedRange(ctx context.Context, q *multimap.Session, o *op) sample {
	start := time.Now()
	var first time.Duration
	st, err := q.RangeQueryStream(ctx, o.lo, o.hi, func(multimap.RangeChunk) {
		if first == 0 {
			first = time.Since(start)
		}
	})
	return sample{op: o, lat: time.Since(start), first: first, st: st, err: err}
}

// tally folds samples into the end-to-end figures every workload
// reports, and checks each read's cell count against its box.
type tally struct {
	ops, failed   int64
	cells         int64
	simMs         float64 // simulated disk ms of every op
	readSimMs     float64 // of the reads alone
	all           hist    // every op
	reads, writes hist
	ranges        hist      // range queries, whole call
	firsts        hist      // range queries, to the first chunk
	keepOrder     bool      // record order
	order         latencies // every op, in issue order
	errs          []string  // the first few failures, for the log
	problems      []string  // correctness failures
	// segs split the phase into windows whose rates are reported as a
	// median, so a burst of interference from elsewhere on the host
	// moves one window instead of the whole figure.
	segs []segment
}

// segment is one window of a measured phase.
type segment struct {
	dur        time.Duration
	ops, cells int64
}

// rateWindow is the throughput window of closed-loop workloads.
const rateWindow = time.Second

func (g *segment) add(s sample) {
	if s.err != nil {
		return
	}
	g.ops++
	if s.op.read() {
		g.cells += s.st.Cells
	}
}

// window counts a sample completed at done into its rateWindow window.
func (t *tally) window(s sample, done time.Duration) {
	i := int(done / rateWindow)
	for len(t.segs) <= i {
		t.segs = append(t.segs, segment{dur: rateWindow})
	}
	t.segs[i].add(s)
}

// merge folds a client's tally into t, keeping the first full windows.
func (t *tally) merge(c *tally, full int) {
	t.ops += c.ops
	t.failed += c.failed
	t.cells += c.cells
	t.simMs += c.simMs
	t.readSimMs += c.readSimMs
	t.all.merge(&c.all)
	t.reads.merge(&c.reads)
	t.writes.merge(&c.writes)
	t.ranges.merge(&c.ranges)
	t.firsts.merge(&c.firsts)
	t.errs = append(t.errs, c.errs...)
	t.problems = append(t.problems, c.problems...)
	for len(t.segs) < full {
		t.segs = append(t.segs, segment{dur: rateWindow})
	}
	for i := 0; i < full && i < len(c.segs); i++ {
		t.segs[i].ops += c.segs[i].ops
		t.segs[i].cells += c.segs[i].cells
	}
}

func (t *tally) add(s sample, countRead func(*op) bool) {
	t.ops++
	t.all.add(s.lat)
	if t.keepOrder {
		t.order.add(s.lat)
	}
	if s.err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, fmt.Sprintf("op failed: %v", s.err))
		}
		return
	}
	t.simMs += s.st.TotalMs
	if s.op.read() {
		if s.st.Cells != s.op.cells && len(t.problems) < 5 {
			t.problems = append(t.problems, fmt.Sprintf("read returned %d cells, box holds %d", s.st.Cells, s.op.cells))
		}
		t.cells += s.st.Cells
		t.readSimMs += s.st.TotalMs
		if countRead(s.op) {
			t.reads.add(s.lat)
		}
		if s.op.kind == opRange {
			t.ranges.add(s.lat)
			t.firsts.add(s.first)
		}
		return
	}
	t.writes.add(s.lat)
}

// throughput is the median over the phase's windows of the ops and
// useful cells completed per second.
func (t *tally) throughput() (opsPerS, cellsPerS float64) {
	var ops, cells []float64
	for _, g := range t.segs {
		ops = append(ops, float64(g.ops)/g.dur.Seconds())
		cells = append(cells, float64(g.cells)/g.dur.Seconds())
	}
	return median(ops), median(cells)
}

// endToEnd derives the end-to-end metrics from a measured phase, and
// prints the figures the endToEnd list leaves out with their sample
// counts: the throughput and the read and write tails.
func (t *tally) endToEnd(m map[string]float64) []string {
	p50, p99 := t.reads.summary()
	m["read_p50_ms"] = p50
	fc, _ := t.firsts.summary()
	m["first_chunk_p50_ms"] = fc
	ops, cells := t.throughput()
	lines := []string{
		fmt.Sprintf("throughput: %.6g ops/s, %.6g cells/s (medians over %d windows)", ops, cells, len(t.segs)),
		fmt.Sprintf("read latency: p50 of %d samples; tail %s = %.4f ms", t.reads.n, p99, p99.Value),
		fmt.Sprintf("first chunk: p50 of %d range samples", t.firsts.n),
	}
	if t.writes.n > 0 {
		_, w99 := t.writes.summary()
		lines = append(lines, fmt.Sprintf("write latency: p50 of %d samples, tail %s", t.writes.n, w99))
	}
	return lines
}

// checkAttribution compares the summed session Stats with the store's
// attributed totals, field for field except ElapsedMs (each chunk of a
// merged batch observes the whole batch's elapsed time).
func checkAttribution(sum, want multimap.Stats) error {
	if sum.Cells != want.Cells || sum.Padding != want.Padding || sum.Requests != want.Requests ||
		sum.CacheHits != want.CacheHits || sum.CacheMisses != want.CacheMisses ||
		sum.Writes != want.Writes || sum.InvalidatedBlocks != want.InvalidatedBlocks ||
		sum.CoalescedWrites != want.CoalescedWrites || sum.FlushBatches != want.FlushBatches ||
		sum.Cancelled != want.Cancelled || sum.DeadlineExceeded != want.DeadlineExceeded ||
		sum.CowFaultBlocks != want.CowFaultBlocks || sum.Partial != want.Partial {
		return fmt.Errorf("attribution: sessions sum %+v, store attributed %+v", sum, want)
	}
	for _, f := range [][3]any{
		{"TotalMs", sum.TotalMs, want.TotalMs}, {"CommandMs", sum.CommandMs, want.CommandMs},
		{"SeekMs", sum.SeekMs, want.SeekMs}, {"RotateMs", sum.RotateMs, want.RotateMs},
		{"TransferMs", sum.TransferMs, want.TransferMs},
	} {
		a, b := f[1].(float64), f[2].(float64)
		if math.Abs(a-b) > 1e-9*(1+math.Abs(b)) {
			return fmt.Errorf("attribution: sessions %s %.9g, store attributed %.9g", f[0], a, b)
		}
	}
	return nil
}

// timeSetups builds the system repeatedly (see minSetupReps), keeping
// the last build, and returns it with the median build time in
// seconds. A small run builds once.
func timeSetups[T any](small bool, build func() (T, error), release func(T)) (T, float64, error) {
	var times []float64
	var total time.Duration
	for {
		start := time.Now()
		env, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		d := time.Since(start)
		times = append(times, d.Seconds())
		total += d
		n := len(times)
		if small || n >= maxSetupReps || (n >= minSetupReps && total >= setupBudget) {
			return env, median(times), nil
		}
		release(env)
		// Collect the discarded build now, so it neither inflates the
		// peak RSS nor charges its GC work to the next build.
		runtime.GC()
	}
}
