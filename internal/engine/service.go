package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// Service is the concurrent query service for one logical volume. A
// single service-loop goroutine owns every member disk's mutable head
// state: sessions submit plan chunks over a queue, the loop admits
// everything queued since the last batch as one admission batch, merges
// the batch's requests into a shared SPTF schedule (cross-query
// coalescing), serves it through lvm.Volume.ServeBatch, and attributes
// per-request costs back to the originating sessions so every query
// still gets its own Stats. An optional shared extent cache lets
// overlapping queries skip re-simulated I/O entirely.
//
// A batch of exactly one chunk is served verbatim — same requests, same
// issue policy, no re-coalescing — so a single session with the cache
// off produces bit-identical Stats to calling Run directly.
//
// # Write path and cache coherence
//
// Writes (Session.Write) are first-class service ops, admitted in the
// same batches as reads. The ordering policy is: within one admission
// batch every read chunk is served before the batch's writes, and
// writes then apply in submission order. A write op first invalidates
// every cached extent overlapping its mutated [lbn, lbn+count) ranges
// — the service loop is the only goroutine allowed to touch the extent
// cache, so invalidation needs no further synchronization — and only
// then is the write's I/O served and its cost charged. Because a
// write's submitter does not unblock until after invalidation, any
// read issued after a write completes observes the invalidation; a
// read admitted concurrently with an in-flight write linearizes before
// it and may still be served from pre-write cache state. Writes do not
// populate the cache (invalidate-on-write, not write-allocate).
type Service struct {
	vol  *lvm.Volume
	opts ServiceOptions

	mu      sync.Mutex
	idle    sync.Cond // signalled when running drops to false
	queue   []*serviceOp
	running bool // a loop goroutine exists and owns the disks
	closed  bool
	cache   *extentCache // owned by the loop; guarded by mu only for reconfiguration
	totals  ServiceTotals
	// backlog is the number of ops the fair scheduler holds deferred,
	// published by the loop after every pass for QueueDepth; guarded by
	// mu (the loop is its only writer).
	backlog int
	// perClass is the per-QoS-class slice of totals, keyed by class
	// name; guarded by mu like totals.
	perClass map[string]*ClassTotals

	// classes is the QoS class registry and drr the admission
	// scheduler's backlog (see qos.go). Both are owned by the loop
	// goroutine: reconfiguration goes through the opQoSCfg control op,
	// which the loop itself executes.
	classes map[string]QoSClass
	drr     *drrSched

	// wake (buffered 1) nudges a loop that is idle-waiting on dirty
	// write-back data: submit signals it on every enqueue and Close on
	// shutdown, so neither waits out the whole flush interval.
	wake chan struct{}
	// wb is the write-back dirty buffer; nil when write-back is off.
	// Owned by the loop goroutine (reconfigured only via the
	// opWriteBackCfg control op, which the loop itself executes).
	wb *dirtySet

	// pl is the dispatch-stage state (per-drive dispatcher queues and
	// the in-flight batch FIFO); scratch and spare are the loop's
	// reusable buffers. All three are owned by the loop goroutine.
	pl      pipelineState
	scratch svcScratch
	spare   []*serviceOp // recycled admission-queue backing array
}

// svcScratch is the loop goroutine's reusable buffer set: the
// admission hot path runs allocation-free in steady state by building
// each pass's transient state into these buffers instead of fresh
// per-pass allocations.
type svcScratch struct {
	reads, writes []*serviceOp
	kept          []lvm.Request // lockstep single-chunk cache-probe survivors
	rr, split     []lvm.Request // read-dependency screen buffers
	merge         mergedPlan    // lockstep merged-batch plan
	touched       map[string]bool
	flushComp     map[int64]lvm.Completion
}

// ServiceOptions tunes a service.
type ServiceOptions struct {
	// CacheBlocks is the shared extent cache capacity in blocks;
	// 0 disables the cache.
	CacheBlocks int64
	// MaxBatch caps how many chunks one admission batch may merge;
	// 0 means no cap (admit everything queued).
	MaxBatch int
	// BatchWindow is the time-based admission window: when positive, the
	// loop waits the window out before every admission pass — one over a
	// non-empty queue, or one that only serves ops the fair scheduler
	// deferred — so bursty concurrent clients coalesce into shared
	// batches even when their submissions are microseconds apart, and
	// under fair share each pass's credit paces a window's worth of
	// arrivals. 0 (the default) admits immediately — bit-for-bit today's
	// behavior. The window trades per-op latency for batching: a lone
	// synchronous client pays the full window per chunk with nothing to
	// coalesce against (pipelined sessions overlap the wait with
	// planning), so enable it only for genuinely concurrent workloads.
	// A pass whose queue holds a control op (Reset, cache
	// reconfiguration) or that follows Close skips the window, keeping
	// those prompt; a pending request deadline or age cap (DeadlineAging)
	// shortens the wait so the window never delays an urgent request
	// past its deadline.
	BatchWindow time.Duration
	// DeadlineAging turns on the admission scheduler's urgent front
	// (see qos.go). When positive, ops whose context carries a deadline,
	// and ops that have already been queued for at least the aging
	// duration, are urgent — they are served first, as their own
	// admission batch ordered by effective deadline (explicit deadline,
	// or enqueue time + aging for aged ops), ahead of — and never
	// coalesced with — the pass's non-urgent ops. An old or urgent
	// request therefore bounds how long cross-query coalescing may delay
	// it: at most one batch of similarly urgent peers. With 0 (the
	// default) and FairQuantum 0 there is no urgent front: every pass
	// admits in submission order.
	DeadlineAging time.Duration
	// FairQuantum gives the admission scheduler one lane per QoS class
	// with weighted-fair (deficit-round-robin) credit when positive:
	// each admission pass grants every backlogged class FairQuantum ×
	// weight blocks of credit, admits each class's ops FIFO while the
	// credit covers their simulated block cost, and defers the rest to
	// later passes — so one class's burst can no longer monopolize an
	// admission pass. Urgent work (explicit context deadline, Urgent
	// class, or op aged past DeadlineAging) keeps strict priority ahead
	// of the weighted shares. 0 (the default) is one shared lane with
	// unbounded credit: FIFO admission. See qos.go for the full
	// contract.
	FairQuantum int64
	// Classes registers the QoS classes (weights, urgency) the fair
	// scheduler and the class-partitioned extent cache use. Sessions
	// reference classes by SessionOptions.Class; unregistered classes
	// get weight 1 and no cache reserve.
	Classes []QoSClass
	// Pipeline is the dispatch pipeline depth: how many admission
	// batches' read I/O may be in flight on the per-drive dispatcher
	// goroutines while the schedule stage admits and plans the next
	// batch. 0 (the default) runs the stages in lockstep on the loop
	// goroutine — bit-identical to the pre-pipeline service. See
	// pipeline.go for the staged-pipeline coherence contract (what
	// stalls, what overlaps, what drains). Negative is treated as 0.
	Pipeline int
	// WriteBack configures write-back caching with group commit: write
	// ops are absorbed into a dirty buffer instead of being charged
	// immediately, and the buffer is committed as one SPTF batch on
	// watermark, flush interval, read dependency, explicit Flush, or
	// Close. Disabled (the zero value) serves every write immediately —
	// bit-identical to the write-through service. See writeback.go for
	// the full contract.
	WriteBack WriteBackOptions
}

// ServiceTotals is the service loop's own bookkeeping, the ground truth
// the per-session Stats must add up to.
type ServiceTotals struct {
	// Batches counts admission batches served; MergedBatches counts
	// those that coalesced more than one chunk, and MaxBatchChunks is
	// the largest admission batch seen — direct evidence of how many
	// queries were in flight together.
	Batches        int64
	MergedBatches  int64
	MaxBatchChunks int
	// IssuedRequests counts requests actually sent to the disks after
	// cross-query coalescing and cache hits.
	IssuedRequests int64
	// WriteOps counts write ops served (write-through) or absorbed into
	// the write-back buffer; InvalidatedBlocks counts cached blocks
	// their write-aware invalidation dropped (also folded into
	// Attributed.InvalidatedBlocks).
	WriteOps          int64
	InvalidatedBlocks int64
	// FlushBatches counts group commits of the write-back buffer — each
	// flush issues the whole dirty set as one SPTF batch.
	// CoalescedWrites counts write ops absorbed into an already-dirty
	// extent, i.e. writes that will share a group-commit I/O with
	// earlier buffered writes instead of paying their own positioning
	// cost. DirtyBlocks is the current write-back buffer size in blocks
	// — a gauge, not a counter; it returns to 0 after every flush. All
	// three stay zero with write-back off.
	FlushBatches    int64
	CoalescedWrites int64
	DirtyBlocks     int64
	// Cancelled and DeadlineExceeded count queued operations dropped
	// before admission because their context was cancelled or past its
	// deadline. Dropped ops charge no simulated I/O and contribute
	// nothing to Attributed. Each drop is also counted by its
	// submitting session's Stats — but session counters additionally
	// include drops that never reached the queue (a session aborting
	// between planner chunks), so summed session counters are an upper
	// bound on these fields, not an equality.
	Cancelled        int64
	DeadlineExceeded int64
	// Attributed aggregates exactly what was handed back to sessions:
	// summing every session's per-query Stats reproduces these fields
	// (ElapsedMs aside — each chunk of a merged batch observes the full
	// batch's elapsed time, while Attributed counts it once).
	Attributed Stats
}

type opKind int

const (
	opChunk opKind = iota
	opWrite
	opReset
	opCacheCfg
	opFlush
	opWriteBackCfg
	opQoSCfg
	opPipelineCfg
)

// serviceOp is one message to the service loop.
type serviceOp struct {
	kind opKind

	// ctx is the submitting request's context (nil means background):
	// the loop drops a work op whose ctx is done before admission.
	// enqueued and deadline feed the QoS batcher — deadline is ctx's
	// deadline resolved once at submission (zero when none).
	ctx      context.Context
	enqueued time.Time
	deadline time.Time

	// opChunk and opWrite fields; a write op carries its mutated block
	// extents in chunk.Reqs. owner is the submitting session of a write
	// op — the write-back flusher credits the group commit's cost back
	// to it (nil for reads and for raw test submissions). class is the
	// submitting session's QoS class ("" for the default class); the
	// fair scheduler queues and charges the op against it. deferred
	// marks an op DRR has already held back at least one pass, so the
	// Deferred counter counts each op once.
	chunk    Chunk
	policy   disk.SchedPolicy // effective issue policy (session override applied)
	trace    func([]lvm.Completion)
	owner    *Session
	class    string
	deferred bool

	// opCacheCfg field.
	cacheBlocks int64
	// opWriteBackCfg field.
	wbCfg WriteBackOptions
	// opQoSCfg fields.
	qosQuantum int64
	qosClasses []QoSClass
	// opPipelineCfg field.
	pipelineDepth int

	reply chan opResult
}

// opPool recycles serviceOps so the admission hot path allocates none
// in steady state. An op's reply channel (capacity 1, always drained
// by the reply's recipient before the op is recycled) survives across
// lives; everything else is zeroed on put.
var opPool = sync.Pool{New: func() any {
	return &serviceOp{reply: make(chan opResult, 1)}
}}

// getOp returns a zeroed op with a ready reply channel.
func getOp() *serviceOp { return opPool.Get().(*serviceOp) }

// putOp recycles an op whose reply has been consumed. Only the reply's
// recipient may call it: the service loop never touches an op after
// sending its result, so the recipient is the last holder.
func putOp(op *serviceOp) {
	reply := op.reply
	*op = serviceOp{reply: reply}
	opPool.Put(op)
}

// opResult is the loop's answer to one chunk: the completions
// attributed to that chunk (synthesized shares when the batch merged
// requests across queries), cache accounting, and the batch's elapsed
// time.
type opResult struct {
	comps       []lvm.Completion
	hits        int64 // requests served whole from the extent cache
	hitCells    int64 // blocks those hits covered
	misses      int64 // requests that reached the disks (cache enabled only)
	invalidated int64 // cached blocks dropped by a write op's invalidation
	written     int64 // blocks absorbed into the write-back buffer
	coalesced   int64 // 1 when the absorbed op coalesced with dirty data
	cowFaults   int64 // blocks faulted out of shared COW extents for this write
	elapsed     float64
	err         error
}

// NewService builds the service for a volume. The caller hands the
// volume's head state to the service: until Close, every ServeBatch and
// Reset must go through it. The loop goroutine runs only while work is
// queued — the first submission of a busy period starts it, and it
// exits once the queue drains — so an idle or abandoned service holds
// no goroutine.
func NewService(vol *lvm.Volume, opts ServiceOptions) *Service {
	s := &Service{
		vol:      vol,
		opts:     opts,
		cache:    newExtentCache(opts.CacheBlocks),
		wake:     make(chan struct{}, 1),
		perClass: make(map[string]*ClassTotals),
		classes:  make(map[string]QoSClass),
		drr:      newDRRSched(),
	}
	if opts.WriteBack.Enabled {
		s.opts.WriteBack = opts.WriteBack.withDefaults()
		s.wb = &dirtySet{}
	}
	if s.opts.Pipeline < 0 {
		s.opts.Pipeline = 0
	}
	s.scratch.touched = make(map[string]bool, 8)
	s.applyQoS(opts.FairQuantum, opts.Classes)
	s.idle.L = &s.mu
	return s
}

// applyQoS installs a fair-share configuration: the quantum (clamped
// to DefaultFairQuantum when enabled with 0), the class registry, and
// the extent cache's per-class reserve shares. Called from NewService
// before the loop exists and from the loop itself (opQoSCfg), so the
// loop-owned registry needs no extra synchronization.
func (s *Service) applyQoS(quantum int64, classes []QoSClass) {
	if quantum < 0 {
		quantum = 0
	}
	if quantum > 0 && len(classes) > 0 {
		// The default class exists whenever fair sharing is on, so
		// unlabelled sessions are a schedulable class of their own.
		if !slices.ContainsFunc(classes, func(c QoSClass) bool { return c.Name == "" }) {
			classes = append(slices.Clone(classes), QoSClass{Name: "", Weight: 1})
		}
	}
	reg := make(map[string]QoSClass, len(classes))
	for _, c := range classes {
		if c.Weight < 1 {
			c.Weight = 1
		}
		reg[c.Name] = c
	}
	s.classes = reg
	s.mu.Lock()
	s.opts.FairQuantum = quantum
	cache := s.cache
	s.mu.Unlock()
	cache.setShares(cacheShares(cache.capacity(), quantum, reg))
}

// cacheShares computes the extent cache's per-class reserve floors:
// capacity × weight / Σweights over the registered classes. Nil — a
// plain unpartitioned LRU — when fair sharing is off or no classes are
// registered.
func cacheShares(capBlocks, quantum int64, classes map[string]QoSClass) map[string]int64 {
	if quantum <= 0 || len(classes) == 0 || capBlocks <= 0 {
		return nil
	}
	var sum int64
	for _, c := range classes {
		sum += int64(c.Weight)
	}
	shares := make(map[string]int64, len(classes))
	for name, c := range classes {
		shares[name] = capBlocks * int64(c.Weight) / sum
	}
	return shares
}

// SetFairShare reconfigures weighted-fair admission, serialized with
// in-flight batches: quantum is the DRR credit in blocks per weight
// unit per admission pass (0 turns fair sharing off, negative is
// treated as 0; an enabled zero-ish quantum below 1 uses
// DefaultFairQuantum via the caller passing it explicitly), and
// classes replaces the QoS class registry. The extent cache's
// per-class reserves are recomputed from the same registry. Ops
// already deferred by the old configuration are drained first —
// reconfiguration is a scheduling barrier like every control op.
func (s *Service) SetFairShare(quantum int64, classes []QoSClass) error {
	op := getOp()
	op.kind = opQoSCfg
	op.qosQuantum = quantum
	op.qosClasses = classes
	return s.control(op)
}

// SetPipeline reconfigures the dispatch pipeline depth (see
// ServiceOptions.Pipeline). Like every control op it is a barrier: all
// in-flight batches drain first, so the pipeline is empty when the new
// depth takes effect and the per-drive dispatcher queues are rebuilt
// lazily at the new capacity. Negative depths are treated as 0, which
// restores the lockstep loop.
func (s *Service) SetPipeline(depth int) error {
	if depth < 0 {
		depth = 0
	}
	op := getOp()
	op.kind = opPipelineCfg
	op.pipelineDepth = depth
	return s.control(op)
}

// SetBatchWindow reconfigures the admission window (see
// ServiceOptions.BatchWindow); it applies from the loop's next
// admission pass. Negative durations are treated as 0. The mutable
// service options (the window and the aging knob) live in s.opts under
// mu, so there is exactly one copy to read.
func (s *Service) SetBatchWindow(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	s.opts.BatchWindow = d
	s.mu.Unlock()
}

// SetDeadlineAging reconfigures the deadline/QoS-aware admission knob
// (see ServiceOptions.DeadlineAging); it applies from the loop's next
// admission pass. Negative durations are treated as 0 (QoS off).
func (s *Service) SetDeadlineAging(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	s.opts.DeadlineAging = d
	s.mu.Unlock()
}

// Close rejects further submissions and waits for the in-flight batches
// to finish, so the caller regains exclusive use of the volume. A
// write-back service commits its dirty buffer before the loop retires —
// Close is the fifth flush trigger — so no acknowledged write is ever
// lost to shutdown. Close is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.signalWake() // a loop idle-waiting on dirty data must notice closed
	for s.running {
		s.idle.Wait()
	}
}

// Closed reports whether Close has been called. A closed service may
// still be draining; Close (idempotent) waits for quiescence.
func (s *Service) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Reset restores every member disk to its initial state and clears the
// extent cache and totals, serialized after all in-flight batches.
func (s *Service) Reset() error {
	op := getOp()
	op.kind = opReset
	return s.control(op)
}

// ConfigureCache resizes the shared extent cache (0 disables it),
// dropping its current contents. Serialized with in-flight batches.
func (s *Service) ConfigureCache(blocks int64) error {
	op := getOp()
	op.kind = opCacheCfg
	op.cacheBlocks = blocks
	return s.control(op)
}

// SetWriteBack reconfigures write-back caching, serialized with
// in-flight batches. The dirty buffer accumulated under the old
// configuration is flushed first, so no buffered write is stranded by
// a reconfiguration (including turning write-back off).
func (s *Service) SetWriteBack(cfg WriteBackOptions) error {
	if cfg.Enabled {
		cfg = cfg.withDefaults()
	}
	op := getOp()
	op.kind = opWriteBackCfg
	op.wbCfg = cfg
	return s.control(op)
}

// Flush commits the write-back dirty buffer as one group-commit batch
// and returns once every previously buffered write has paid its
// simulated I/O. Like all control ops it is a barrier: writes submitted
// before the Flush are absorbed (and therefore committed) first. A ctx
// already cancelled or past its deadline when the loop reaches the op
// returns that error WITHOUT flushing — the dirty data stays buffered
// and commits on a later trigger, never half-flushed. With write-back
// off (or nothing dirty) Flush is a no-op. Returns ErrClosed after
// Close.
func (s *Service) Flush(ctx context.Context) error {
	op := getOp()
	op.kind = opFlush
	op.ctx = ctx
	return s.control(op)
}

// Totals snapshots the service-loop bookkeeping.
func (s *Service) Totals() ServiceTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals
}

func (s *Service) control(op *serviceOp) error {
	if err := s.submit(op); err != nil {
		putOp(op)
		return err
	}
	err := (<-op.reply).err
	putOp(op)
	return err
}

// submit enqueues one op, starting a loop goroutine if none is running.
// The op's reply channel (buffer >= 1) receives exactly one result
// unless submit returns an error.
func (s *Service) submit(op *serviceOp) error {
	op.enqueued = time.Now()
	if op.ctx != nil {
		if d, ok := op.ctx.Deadline(); ok {
			op.deadline = d
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.queue = append(s.queue, op)
	if !s.running {
		s.running = true
		go s.loop()
	} else {
		s.signalWake() // interrupt an idle-wait on dirty write-back data
	}
	s.mu.Unlock()
	return nil
}

// signalWake posts a non-blocking token on the wake channel (buffer 1,
// so a pending token is enough — the loop re-checks state after every
// wake; a stale token at worst causes one harmless extra pass).
func (s *Service) signalWake() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// loop is the service goroutine: it grabs everything queued since the
// last pass as one admission batch, serves it, and exits when the queue
// drains. At most one loop runs at a time (the running flag), so the
// disks have a single owner. A positive admission window makes the loop
// wait it out after noticing pending work, admitting everything that
// arrived meanwhile as one batch — unless a control op is already
// queued, which is admitted promptly.
func (s *Service) loop() {
	for {
		s.mu.Lock()
		if w := s.opts.BatchWindow; w > 0 && (len(s.queue) > 0 || s.drr.count > 0) &&
			!s.closed && !s.queuedControl() {
			// An urgent pending request bounds the wait: never sleep past
			// an explicit context deadline, nor past the point where a
			// pending op's age reaches the QoS aging cap.
			if wake, ok := s.earliestWake(s.opts.DeadlineAging); ok {
				if until := time.Until(wake); until < w {
					w = until
				}
			}
			s.mu.Unlock()
			if w > 0 {
				time.Sleep(w)
			}
			s.mu.Lock()
		}
		batch := s.queue
		s.queue = s.spare // recycled backing array (nil on first pass)
		s.spare = nil
		aging := s.opts.DeadlineAging
		wb := s.opts.WriteBack
		closed := s.closed
		if len(batch) == 0 {
			s.spare = batch[:0]
			if s.drr.count > 0 {
				// A DRR backlog keeps the loop alive: each extra pass
				// grants fresh per-class credit and admits at least one
				// deferred op, so the backlog drains in bounded passes.
				// After Close nothing new can arrive to share passes
				// with, so the backlog is served out in one drain.
				s.mu.Unlock()
				if closed {
					s.drainDeferred()
				} else {
					s.serveWork(nil, aging)
				}
				continue
			}
			if len(s.pl.inflight) > 0 {
				// In-flight pipelined batches keep the loop alive: park
				// until the next completion token (retiring completed
				// batches in dispatch order) or a wake signal delivers new
				// work to overlap with them.
				s.mu.Unlock()
				s.plAwait()
				continue
			}
			if s.wb != nil && s.wb.blocks > 0 {
				// Dirty write-back data keeps the loop alive: on Close it
				// flushes immediately (trigger five); otherwise it sleeps
				// until the oldest extent's flush interval elapses — or a
				// wake signal delivers new work — and re-checks.
				s.mu.Unlock()
				if !closed {
					if since, ok := s.wb.oldest(); ok {
						if wait := time.Until(since.Add(wb.FlushInterval)); wait > 0 {
							s.waitDirty(wait)
							continue
						}
					}
				}
				s.flushDirty()
				continue
			}
			// Idle: retire the dispatcher goroutines with the loop (the
			// pipeline is empty, so they are parked on their queues and
			// never touch mu) — an idle service holds no goroutines.
			s.plShutdown()
			s.running = false
			s.idle.Broadcast()
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		s.process(batch, aging)
		clear(batch)
		s.spare = batch[:0]
		// A busy service still honors the interval bound: dirty data
		// older than the flush interval commits between admission passes
		// instead of waiting for the queue to drain.
		if s.wb != nil && s.wb.blocks > 0 {
			if since, ok := s.wb.oldest(); ok && !time.Now().Before(since.Add(wb.FlushInterval)) {
				s.flushDirty()
			}
		}
	}
}

// waitDirty sleeps until the next flush deadline or a wake signal (a
// new submission, or Close).
func (s *Service) waitDirty(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.wake:
	case <-t.C:
	}
}

// queuedControl reports whether the queue holds a control op (caller
// must hold mu).
func (s *Service) queuedControl() bool {
	for _, op := range s.queue {
		if op.kind != opChunk && op.kind != opWrite {
			return true
		}
	}
	return false
}

// earliestWake returns the soonest instant by which the admission
// window should end on behalf of a pending urgent request, queued or
// deferred: the earliest explicit context deadline, or the earliest
// enqueue time plus the aging cap when aging is on (caller must hold
// mu; the backlog is the caller's own, the loop's).
func (s *Service) earliestWake(aging time.Duration) (time.Time, bool) {
	var wake time.Time
	ok := false
	consider := func(t time.Time) {
		if !ok || t.Before(wake) {
			wake, ok = t, true
		}
	}
	scan := func(ops []*serviceOp) {
		for _, op := range ops {
			if !op.deadline.IsZero() {
				consider(op.deadline)
			}
			if aging > 0 {
				consider(op.enqueued.Add(aging))
			}
		}
	}
	scan(s.queue)
	for _, q := range s.drr.pending {
		scan(q)
	}
	return wake, ok
}

// process serves one admitted batch in submission order: consecutive
// chunk and write ops form admission batches; control ops are
// barriers. A control op also drains the DRR backlog first — ops the
// fair scheduler deferred were submitted before the control op, so
// deferring them past it would reorder work across the barrier.
func (s *Service) process(batch []*serviceOp, aging time.Duration) {
	isWork := func(k opKind) bool { return k == opChunk || k == opWrite }
	for i := 0; i < len(batch); {
		if !isWork(batch[i].kind) {
			s.drainDeferred()
			// Control ops are pipeline barriers too: the deferred drain
			// above may have dispatched, so drain after it.
			s.plDrain()
			s.handleControl(batch[i])
			i++
			continue
		}
		j := i
		for j < len(batch) && isWork(batch[j].kind) {
			j++
		}
		s.serveWork(batch[i:j], aging)
		i = j
	}
}

// serveWork admits one run of work ops: ops whose context is already
// cancelled or past its deadline are dropped first — before admission,
// so they are never issued and charge no simulated I/O — then the live
// ops join the admission scheduler's backlog and one pass runs (see
// qos.go): the urgent front first, when on (strict priority, ordered by
// effective deadline), then each lane's granted ops as their own batch
// — under fair share one lane per class, never coalescing across
// classes; otherwise one lane admitting the whole pass in submission
// order. MaxBatch caps each served batch's size. A nil ops slice runs
// a pure backlog pass — how the loop drains deferred work when the
// queue is empty.
func (s *Service) serveWork(ops []*serviceOp, aging time.Duration) {
	s.sweepDeferred()
	live := s.dropCancelled(ops)
	s.mu.Lock()
	quantum := s.opts.FairQuantum
	s.mu.Unlock()
	s.drr.push(live, quantum > 0)
	var urgent []*serviceOp
	if quantum > 0 || aging > 0 {
		classes := s.classes
		if quantum <= 0 {
			classes = nil // Urgent classes are a fair-share notion
		}
		urgent = s.drr.takeUrgent(classes, aging, time.Now())
	}
	groups := s.drr.grant(s.classes, quantum)
	// What stays in the backlog is known now: publish it before any
	// reply, so QueueDepth never counts an op its submitter has back.
	s.markDeferred()
	if len(urgent) > 0 {
		sortUrgent(urgent, aging)
		s.mu.Lock()
		for _, op := range urgent {
			s.classTot(op.class).UrgentOps++
		}
		s.mu.Unlock()
		s.serveGroup(urgent)
	}
	for _, group := range groups {
		s.serveGroup(group)
	}
}

// serveGroup serves one scheduler-admitted group in MaxBatch slices.
func (s *Service) serveGroup(group []*serviceOp) {
	for len(group) > 0 {
		k := len(group)
		if m := s.opts.MaxBatch; m > 0 && k > m {
			k = m
		}
		s.serveChunks(group[:k])
		group = group[k:]
	}
}

// drainDeferred serves the entire DRR backlog immediately — per class
// in sorted class order — forfeiting all credit. Runs ahead of control
// barriers and on close.
func (s *Service) drainDeferred() {
	for _, group := range s.drr.drain() {
		s.serveGroup(s.dropCancelled(group))
	}
	s.markDeferred()
}

// sweepDeferred re-drops backlogged ops whose context died while they
// were deferred, so a deferral never turns into simulated I/O for a
// caller that already gave up.
func (s *Service) sweepDeferred() {
	for name, q := range s.drr.pending {
		kept := s.dropCancelled(q)
		s.drr.count -= len(q) - len(kept)
		s.drr.pending[name] = kept
	}
}

// markDeferred counts ops DRR holds back this pass — once per op — and
// publishes the backlog size to QueueDepth.
func (s *Service) markDeferred() {
	if s.drr.count == 0 && s.backlog == 0 {
		return
	}
	s.mu.Lock()
	s.backlog = s.drr.count
	for _, q := range s.drr.pending {
		for _, op := range q {
			if !op.deferred {
				op.deferred = true
				s.classTot(op.class).Deferred++
			}
		}
	}
	s.mu.Unlock()
}

// classTot returns the per-class totals bucket, creating it on first
// use. Caller must hold mu.
func (s *Service) classTot(name string) *ClassTotals {
	ct := s.perClass[name]
	if ct == nil {
		ct = &ClassTotals{Class: name}
		s.perClass[name] = ct
	}
	return ct
}

// ClassTotals snapshots the per-QoS-class slice of the service
// bookkeeping, sorted by class name. Each entry's Attributed is the
// class's share of Totals().Attributed: summing the entries
// reproduces it field for field, ElapsedMs aside (a shared batch's
// elapsed time is observed once per contributing class).
func (s *Service) ClassTotals() []ClassTotals {
	s.mu.Lock()
	out := make([]ClassTotals, 0, len(s.perClass))
	for _, ct := range s.perClass {
		out = append(out, *ct)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b ClassTotals) int {
		return cmp.Compare(a.Class, b.Class)
	})
	return out
}

// dropCancelled replies to — and filters out — every op whose context
// is done, counting the drops in the service totals. The reply carries
// the context error and no completions; the submitting session folds
// the drop into its own Cancelled/DeadlineExceeded counters, so the
// two sides agree event for event. A dropped write op still performs
// its cache invalidation: the submitter's cell state already mutated
// by the time the write was queued, so skipping the invalidation would
// leave stale extents readable — the coherence contract survives
// cancellation, only the simulated I/O is never issued or charged.
func (s *Service) dropCancelled(ops []*serviceOp) []*serviceOp {
	live := ops[:0]
	for _, op := range ops {
		var err error
		if op.ctx != nil {
			err = op.ctx.Err()
		}
		if err == nil {
			live = append(live, op)
			continue
		}
		var inv int64
		if op.kind == opWrite {
			// An in-flight read batch overlapping the dropped write's
			// extents will insert them into the cache at retirement;
			// invalidating before that insertion would leave stale data
			// readable, so the invalidation stalls behind the batch.
			if s.plOverlaps(op.chunk.Reqs) {
				s.plDrain()
			}
			split := s.splitInto(s.scratch.split[:0], op.chunk.Reqs)
			s.scratch.split = split[:0]
			for _, r := range split {
				inv += s.cache.invalidate(r.VLBN, r.VLBN+int64(r.Count)) // nil-safe
			}
		}
		s.mu.Lock()
		if errors.Is(err, context.DeadlineExceeded) {
			s.totals.DeadlineExceeded++
		} else {
			s.totals.Cancelled++
		}
		if op.kind == opWrite {
			s.totals.InvalidatedBlocks += inv
			s.attribute(op.class, nil, 0, toCells, Stats{InvalidatedBlocks: inv})
		}
		s.mu.Unlock()
		op.reply <- opResult{err: err, invalidated: inv}
	}
	return live
}

func (s *Service) handleControl(op *serviceOp) {
	var err error
	switch op.kind {
	case opReset:
		s.vol.Reset()
		if s.wb != nil {
			// Reset rewinds the disks to their initial state; buffered
			// writes against the pre-reset state are dropped unflushed
			// (their gauge is zeroed with the totals below).
			s.wb.take()
		}
		s.mu.Lock()
		s.cache.clear() // nil-safe when the cache is off
		s.totals = ServiceTotals{}
		s.perClass = make(map[string]*ClassTotals)
		s.mu.Unlock()
	case opCacheCfg:
		s.mu.Lock()
		s.cache = newExtentCache(op.cacheBlocks)
		cache := s.cache
		quantum := s.opts.FairQuantum
		s.mu.Unlock()
		// A resized cache keeps the QoS partition: reapply the class
		// reserve shares at the new capacity.
		cache.setShares(cacheShares(op.cacheBlocks, quantum, s.classes))
	case opQoSCfg:
		s.applyQoS(op.qosQuantum, op.qosClasses)
	case opPipelineCfg:
		// The control barrier drained the pipeline; retire the dispatcher
		// goroutines so their queues are rebuilt at the new depth on the
		// next dispatch.
		s.plShutdown()
		s.mu.Lock()
		s.opts.Pipeline = op.pipelineDepth
		s.mu.Unlock()
	case opFlush:
		if op.ctx != nil {
			if cerr := op.ctx.Err(); cerr != nil {
				// A dead ctx aborts the flush before it starts: nothing is
				// committed, nothing is charged, and the dirty buffer stays
				// intact for a later trigger — a flush is all-or-nothing.
				err = cerr
				break
			}
		}
		err = s.flushDirty()
	case opWriteBackCfg:
		// Commit under the old configuration first so no buffered write
		// is stranded, then swap the knobs.
		err = s.flushDirty()
		if op.wbCfg.Enabled && s.wb == nil {
			s.wb = &dirtySet{}
		} else if !op.wbCfg.Enabled {
			s.wb = nil
		}
		s.mu.Lock()
		s.opts.WriteBack = op.wbCfg
		s.mu.Unlock()
	default:
		err = fmt.Errorf("engine: unknown service op %d", op.kind)
	}
	op.reply <- opResult{err: err}
}

// serveChunks services one admission batch of chunk and write ops
// under the documented ordering policy: all read chunks first (merged
// across queries when more than one), then the batch's writes in
// submission order, each invalidating overlapping cached extents
// before its cost is charged. With write-back on, writes are absorbed
// into the dirty buffer instead of served (invalidation still happens
// at absorb time), a read overlapping dirty data forces a flush before
// the reads are served (read-your-write: a read never observes a disk
// state older than an acknowledged write), and reaching the watermark
// flushes after the batch's writes are absorbed.
func (s *Service) serveChunks(items []*serviceOp) {
	reads, writes := s.scratch.reads[:0], s.scratch.writes[:0]
	for _, op := range items {
		if op.kind == opWrite {
			writes = append(writes, op)
		} else {
			reads = append(reads, op)
		}
	}
	s.scratch.reads, s.scratch.writes = reads, writes
	s.mu.Lock()
	wb := s.opts.WriteBack
	depth := s.opts.Pipeline
	s.mu.Unlock()
	wbOn := wb.Enabled && s.wb != nil
	if wbOn && len(reads) > 0 && len(s.wb.extents) > 0 {
		rr := s.scratch.rr[:0]
		for _, op := range reads {
			rr = append(rr, op.chunk.Reqs...)
		}
		split := s.splitInto(s.scratch.split[:0], rr)
		s.scratch.rr, s.scratch.split = rr[:0], split[:0]
		if s.wb.overlaps(split) {
			s.flushDirty()
		}
	}
	switch {
	case len(reads) == 1:
		s.dispatchSingle(depth, reads[0])
	case len(reads) > 1:
		s.dispatchMerged(depth, reads)
	}
	for _, op := range writes {
		if wbOn {
			// Absorption performs no I/O, so it needs no barrier — unless
			// it would invalidate an extent an in-flight batch will insert
			// (stale data would become readable), or it must COW-fault
			// (loop-side I/O must not interleave with the dispatchers).
			if len(s.pl.inflight) > 0 && (s.vol.HasCOW() || s.plOverlaps(op.chunk.Reqs)) {
				s.plDrain()
			}
			s.absorbWrite(op)
		} else {
			// Write-through I/O runs on the loop goroutine — a barrier.
			s.plDrain()
			s.serveWrite(op)
		}
	}
	if wbOn && s.wb.blocks >= wb.WatermarkBlocks {
		s.flushDirty()
	}
}

// splitInto clips extents at member-disk segment boundaries, appending
// to out (hot-path callers pass loop scratch): a request must stay
// within one disk (the same invariant the read coalescer enforces), but
// write submitters coalesce the blocks a mutation dirties by plain VLBN
// adjacency, and an overflow extent ending exactly at one disk's tail
// can sit adjacent to the next disk's first block. Out-of-range
// addresses pass through unchanged so ServeBatch surfaces the error to
// the submitter.
func (s *Service) splitInto(out []lvm.Request, reqs []lvm.Request) []lvm.Request {
	for _, r := range reqs {
		for {
			di, lbn, err := s.vol.Locate(r.VLBN)
			if err != nil {
				out = append(out, r)
				break
			}
			room := s.vol.DiskBlocks(di) - lbn
			if int64(r.Count) <= room {
				out = append(out, r)
				break
			}
			out = append(out, lvm.Request{VLBN: r.VLBN, Count: int(room)})
			r.VLBN += room
			r.Count -= int(room)
		}
	}
	return out
}

// cowFault serves the copy-on-write fault set of one write op: the
// track-granule spans of its target blocks still mapped to shared
// frozen extents (a snapshotted parent's, or the parent extents under a
// clone) are read at their current shared location — the simulated
// copy-out — and then remapped onto privately allocated extents, so the
// write I/O that follows lands in storage this volume owns. The fault
// read's completions and elapsed time are folded into the op's result,
// so its cost is attributed to the writing session exactly like the
// write itself; the faulted block count lands in CowFaultBlocks.
// Returns the number of fault requests issued. A volume with no COW
// segments detects the no-op with one atomic load.
//
// Ordering matters: callers must re-derive segment boundaries
// (splitInto) AFTER a successful fault, because resolving
// splits segments and renumbers their indices.
func (s *Service) cowFault(op *serviceOp, res *opResult) (int, error) {
	spans := s.vol.CowSpans(op.chunk.Reqs)
	if len(spans) == 0 {
		return 0, nil
	}
	comps, elapsed, err := s.vol.ServeBatch(spans, op.policy)
	if err != nil {
		return 0, err
	}
	if err := s.vol.ResolveCOW(spans); err != nil {
		return 0, err
	}
	res.comps = append(res.comps, comps...)
	res.elapsed += elapsed
	for _, sp := range spans {
		res.cowFaults += int64(sp.Count)
	}
	return len(spans), nil
}

// finishWrite is the write path's single charge-and-reply step, for
// served, absorbed and failed writes alike: whatever the op performed
// (COW fault, invalidation, absorption, write I/O) stays visible to
// later reads, so it is charged to the service and its class and handed
// back in the reply — with err when a later step failed — and the
// session's totals still sum to Attributed. issued counts the requests
// that reached the disks.
func (s *Service) finishWrite(op *serviceOp, res opResult, issued int, err error) {
	s.mu.Lock()
	t := &s.totals
	t.WriteOps++
	t.CoalescedWrites += res.coalesced
	t.InvalidatedBlocks += res.invalidated
	t.IssuedRequests += int64(issued)
	if s.wb != nil {
		t.DirtyBlocks = s.wb.blocks
	}
	s.attribute(op.class, res.comps, res.elapsed, toWrites, Stats{
		Writes:            res.written,
		InvalidatedBlocks: res.invalidated,
		CoalescedWrites:   res.coalesced,
		CowFaultBlocks:    res.cowFaults,
	}).Ops++
	s.mu.Unlock()
	res.err = err
	op.reply <- res
}

// prepareWrite is both write paths' front: fault the op's COW target
// tracks into private extents, clip its extents at segment ends — after
// the resolve, whose segment splits move the boundaries — into loop
// scratch (nothing reads op.chunk.Reqs once the write is answered), and
// invalidate every cached extent they overlap. ok is false when the
// fault failed and the op has been answered.
func (s *Service) prepareWrite(op *serviceOp) (res opResult, faultReqs int, ok bool) {
	faultReqs, err := s.cowFault(op, &res)
	if err != nil {
		s.finishWrite(op, opResult{}, 0, err)
		return res, 0, false
	}
	split := s.splitInto(s.scratch.split[:0], op.chunk.Reqs)
	s.scratch.split = split[:0]
	op.chunk.Reqs = split
	for _, r := range split {
		res.invalidated += s.cache.invalidate(r.VLBN, r.VLBN+int64(r.Count)) // nil-safe
	}
	return res, faultReqs, true
}

// serveWrite applies one write op: fault any copy-on-write target
// tracks into private extents, invalidate every cached extent
// overlapping the mutated ranges, then serve the write I/O and charge
// its cost to the submitting session. Writes never populate the cache.
// Extents crossing a segment boundary are split here — after the COW
// resolve, whose segment splits move the boundaries — so Write's
// contract needs no per-disk precondition from its callers.
func (s *Service) serveWrite(op *serviceOp) {
	res, faultReqs, ok := s.prepareWrite(op)
	if !ok {
		return
	}
	if len(op.chunk.Reqs) > 0 {
		comps, elapsed, err := s.vol.ServeBatch(op.chunk.Reqs, op.policy)
		if err != nil {
			// The fault and invalidation already happened: charge them.
			s.finishWrite(op, res, faultReqs, err)
			return
		}
		res.comps = append(res.comps, comps...)
		res.elapsed += elapsed
	}
	s.finishWrite(op, res, len(op.chunk.Reqs)+faultReqs, nil)
}

// absorbWrite buffers one write op in the write-back dirty set instead
// of serving it: the submitter is acknowledged immediately with zero
// I/O cost (its blocks in Writes, its invalidation count, and the
// coalesced flag when the op merged into already-dirty data), and the
// simulated I/O is deferred to the next group commit. Cache coherence
// is NOT deferred — every cached extent overlapping the mutated blocks
// is invalidated here, exactly as on the write-through path. Extents
// whose addresses fall outside the volume are routed to the immediate
// write path instead, so address errors surface to the submitter
// synchronously rather than at some later flush. COW coherence is not
// deferred either: target tracks still mapped to shared frozen extents
// are faulted into private storage here, before absorption — the
// address screen runs first (VLBN validity is unaffected by the
// resolve), so the serveWrite fallback never double-charges a fault —
// and the absorbed extents therefore only ever cover private segments,
// which are never re-split, keeping their recorded flush boundaries
// valid at group-commit time.
func (s *Service) absorbWrite(op *serviceOp) {
	screen := s.splitInto(s.scratch.split[:0], op.chunk.Reqs)
	s.scratch.split = screen[:0]
	for _, r := range screen {
		if _, _, err := s.vol.Locate(r.VLBN); err != nil {
			// Write-through fallback performs I/O on the loop goroutine.
			s.plDrain()
			s.serveWrite(op)
			return
		}
	}
	res, faultReqs, ok := s.prepareWrite(op)
	if !ok {
		return
	}
	now := time.Now()
	for _, r := range op.chunk.Reqs {
		start, end := r.VLBN, r.VLBN+int64(r.Count)
		di, lbn, _ := s.vol.Locate(start)
		boundary := start - lbn + s.vol.DiskBlocks(di)
		if s.wb.absorb(op.owner, start, end, boundary, now) {
			res.coalesced = 1
		}
		res.written += int64(r.Count)
	}
	s.finishWrite(op, res, faultReqs, nil)
}

// flushDirty group-commits the entire dirty buffer as one SPTF batch —
// the write-back payoff: every buffered write shares one head
// trajectory instead of paying its own positioning cost. The batch's
// per-extent costs are split among the sessions whose buffered writes
// dirtied the extent, in proportion to the blocks each asked for (the
// same split merged read batches apply to shared extents), and folded
// into both the sessions' lifetime Totals and Attributed — so summing
// session totals still reproduces Attributed after a flush. Each
// contributing session observes the full batch ElapsedMs and counts
// one FlushBatches (Attributed.FlushBatches grows by the number of
// contributors to keep the sum exact; the top-level
// ServiceTotals.FlushBatches counts actual batches). A flush of an
// empty buffer is free.
func (s *Service) flushDirty() error {
	if s.wb == nil || len(s.wb.extents) == 0 {
		return nil
	}
	// The group commit serves I/O on the loop goroutine — a pipeline
	// barrier, so the flush batch never interleaves with dispatched
	// reads on any drive's schedule.
	s.plDrain()
	extents := s.wb.take()
	reqs := make([]lvm.Request, len(extents))
	for i, e := range extents {
		reqs[i] = lvm.Request{VLBN: e.start, Count: int(e.end - e.start)}
	}
	comps, elapsed, err := s.vol.ServeBatch(reqs, disk.SchedSPTF)
	if err != nil {
		// Unreachable in practice: absorbWrite screens out every address
		// ServeBatch can reject. Coherence survives regardless (the
		// invalidation happened at absorb); only the gauge is corrected.
		s.mu.Lock()
		s.totals.DirtyBlocks = 0
		s.mu.Unlock()
		return err
	}
	// Extents are disjoint, so completions map back by start VLBN.
	compAt := s.scratch.flushComp
	if compAt == nil {
		compAt = make(map[int64]lvm.Completion, len(comps))
		s.scratch.flushComp = compAt
	} else {
		clear(compAt)
	}
	for _, c := range comps {
		compAt[c.Req.VLBN] = c
	}
	perOwner := make(map[*Session]*Stats)
	for i, e := range extents {
		c := compAt[reqs[i].VLBN]
		var asked int64
		for _, n := range e.contribs {
			asked += n
		}
		for owner, n := range e.contribs {
			f := float64(n) / float64(asked)
			st := perOwner[owner]
			if st == nil {
				st = &Stats{}
				perOwner[owner] = st
			}
			st.addCompletions([]lvm.Completion{
				share(c, lvm.Request{VLBN: e.start, Count: int(n)}, f),
			}, 0, toNone)
		}
	}
	s.mu.Lock()
	t := &s.totals
	t.FlushBatches++
	t.IssuedRequests += int64(len(reqs))
	t.DirtyBlocks = 0
	clear(s.scratch.touched)
	for owner, st := range perOwner {
		st.FlushBatches = 1
		class := ""
		if owner != nil {
			class = owner.class
		}
		s.attribute(class, nil, 0, toNone, *st)
		s.scratch.touched[class] = true
	}
	s.attributeElapsed(elapsed)
	s.mu.Unlock()
	for owner, st := range perOwner {
		st.ElapsedMs = elapsed
		if owner != nil {
			owner.creditFlush(*st)
		}
	}
	return nil
}

// planSingle is a lone chunk's schedule stage: probe the cache,
// folding hits into res, and return the requests that must reach the
// disks. With the cache off the chunk's own request slice is returned
// untouched; otherwise the survivors are collected into the loop's
// probe buffer when the plan dies with the call (lockstep), or into a
// fresh slice that can ride an in-flight batch.
func (s *Service) planSingle(op *serviceOp, res *opResult, lockstep bool) []lvm.Request {
	if s.cache == nil {
		return op.chunk.Reqs
	}
	var kept []lvm.Request
	if lockstep {
		kept = s.scratch.kept[:0]
	}
	for _, r := range op.chunk.Reqs {
		if s.cache.covered(r.VLBN, r.VLBN+int64(r.Count)) {
			res.hits++
			res.hitCells += int64(r.Count)
			continue
		}
		res.misses++
		kept = append(kept, r)
	}
	if lockstep {
		s.scratch.kept = kept[:0] // keep the grown probe buffer
	}
	return kept
}

// finishSingle is a lone chunk's completion stage: insert the served
// extents into the cache, account, trace, reply. issued is the number
// of requests that reached the disks (the plan's survivors).
func (s *Service) finishSingle(op *serviceOp, res opResult, issued int, comps []lvm.Completion, elapsed float64) {
	if issued > 0 {
		res.comps, res.elapsed = comps, elapsed
		for _, c := range comps {
			s.cache.insertFor(c.Req.VLBN, c.Req.VLBN+int64(c.Req.Count), op.class) // nil-safe
		}
	}
	s.account([]*serviceOp{op}, []opResult{res}, int64(issued), res.elapsed)
	if op.trace != nil && len(res.comps) > 0 {
		op.trace(res.comps)
	}
	op.reply <- res
}

// mergeEntry ties one item's request to its slot in a merged plan.
type mergeEntry struct {
	item int
	req  lvm.Request
}

// mergedPlan is one planned multi-chunk read batch: the items, the
// batch's issue policy, and the buffers holding the coalesced extents
// and per-item results. The loop owns one (svcScratch.merge) for
// lockstep batches and reuses it across batches; each in-flight
// pipelined batch carries its own, since its plan must survive until
// retirement.
type mergedPlan struct {
	items   []*serviceOp
	policy  disk.SchedPolicy
	entries []mergeEntry
	reqs    []lvm.Request // the coalesced extents to issue
	// members[k] lists the entry indices merged into extent reqs[k].
	members [][]int
	results []opResult
	compAt  map[int64]lvm.Completion
}

// reset readies the plan for items, reusing every backing allocation
// from earlier plans.
func (mp *mergedPlan) reset(items []*serviceOp) {
	mp.items = items
	mp.entries = mp.entries[:0]
	mp.reqs = mp.reqs[:0]
	mp.members = mp.members[:0]
	if n := len(items); cap(mp.results) < n {
		mp.results = make([]opResult, n)
	} else {
		mp.results = mp.results[:n]
		clear(mp.results)
	}
}

// pushMember opens extent slot k = len(members) holding one entry
// index, reusing the retained inner slice when one exists.
func (mp *mergedPlan) pushMember(idx int) {
	if n := len(mp.members); n < cap(mp.members) {
		mp.members = mp.members[:n+1]
		mp.members[n] = append(mp.members[n][:0], idx)
		return
	}
	mp.members = append(mp.members, []int{idx})
}

// fail replies the error to every item of the plan.
func (mp *mergedPlan) fail(err error) {
	for _, it := range mp.items {
		it.reply <- opResult{err: err}
	}
}

// planMerged is a multi-chunk batch's schedule stage: probe the cache
// per request, coalesce the survivors across queries into shared
// extents (merging overlap and exact adjacency, never across a
// disk-segment boundary), and pick the batch policy — the chunks'
// unanimous policy, or SPTF when the batch mixes policies (cross-query
// order is the drive's to choose) — building into mp. Returns false
// after replying the error to every item when an extent fails to
// locate.
func (s *Service) planMerged(items []*serviceOp, mp *mergedPlan) bool {
	mp.reset(items)
	for i, it := range items {
		for _, r := range it.chunk.Reqs {
			if s.cache != nil {
				if s.cache.covered(r.VLBN, r.VLBN+int64(r.Count)) {
					mp.results[i].hits++
					mp.results[i].hitCells += int64(r.Count)
					continue
				}
				mp.results[i].misses++
			}
			mp.entries = append(mp.entries, mergeEntry{item: i, req: r})
		}
	}
	if len(mp.entries) == 0 {
		return true
	}
	slices.SortStableFunc(mp.entries, func(a, b mergeEntry) int {
		switch {
		case a.req.VLBN != b.req.VLBN:
			if a.req.VLBN < b.req.VLBN {
				return -1
			}
			return 1
		default:
			return a.req.Count - b.req.Count
		}
	})
	var boundary int64 // end VLBN of the current extent's disk segment
	for idx, e := range mp.entries {
		start := e.req.VLBN
		end := start + int64(e.req.Count)
		if n := len(mp.reqs); n > 0 {
			last := &mp.reqs[n-1]
			lastEnd := last.VLBN + int64(last.Count)
			// Merge overlap or exact adjacency, but never across a
			// disk-segment boundary: each original request lies in one
			// segment, so extents clipped to the boundary stay valid.
			if start <= lastEnd && start < boundary {
				if end > lastEnd {
					last.Count = int(end - last.VLBN)
				}
				mp.members[n-1] = append(mp.members[n-1], idx)
				continue
			}
		}
		di, lbn, err := s.vol.Locate(start)
		if err != nil {
			mp.fail(err)
			return false
		}
		boundary = start - lbn + s.vol.DiskBlocks(di)
		mp.reqs = append(mp.reqs, lvm.Request{VLBN: start, Count: e.req.Count})
		mp.pushMember(idx)
	}
	mp.policy = items[0].policy
	for _, it := range items[1:] {
		if it.policy != mp.policy {
			mp.policy = disk.SchedSPTF
			break
		}
	}
	return true
}

// finishMerged is a merged batch's completion stage: map each served
// extent's completion back to its contributors, splitting its cost in
// proportion to the blocks each asked for (blocks wanted by several
// queries are read once; every query is still credited its own cells),
// insert the extents into the cache, account, trace, reply.
func (s *Service) finishMerged(mp *mergedPlan, comps []lvm.Completion, elapsed float64) {
	items := mp.items
	if len(mp.reqs) > 0 {
		// Extents are disjoint, so a completion maps back by start VLBN.
		if mp.compAt == nil {
			mp.compAt = make(map[int64]lvm.Completion, len(comps))
		} else {
			clear(mp.compAt)
		}
		for _, c := range comps {
			mp.compAt[c.Req.VLBN] = c
		}
		for k, r := range mp.reqs {
			c := mp.compAt[r.VLBN]
			// A shared extent is tagged with its first contributor's class.
			s.cache.insertFor(r.VLBN, r.VLBN+int64(r.Count), items[mp.entries[mp.members[k][0]].item].class) // nil-safe
			if len(mp.members[k]) == 1 {
				e := mp.entries[mp.members[k][0]]
				mp.results[e.item].comps = append(mp.results[e.item].comps, c)
				continue
			}
			var owned int64
			for _, mi := range mp.members[k] {
				owned += int64(mp.entries[mi].req.Count)
			}
			for _, mi := range mp.members[k] {
				e := mp.entries[mi]
				f := float64(e.req.Count) / float64(owned)
				mp.results[e.item].comps = append(mp.results[e.item].comps, share(c, e.req, f))
			}
		}
	}
	for i := range mp.results {
		mp.results[i].elapsed = elapsed
	}
	s.account(items, mp.results, int64(len(mp.reqs)), elapsed)
	for i, it := range items {
		if it.trace != nil && len(mp.results[i].comps) > 0 {
			it.trace(mp.results[i].comps)
		}
		it.reply <- mp.results[i]
	}
}

// share is one contributor's part of a coalesced extent's completion
// c: credited as req, with every cost component scaled by f.
func share(c lvm.Completion, req lvm.Request, f float64) lvm.Completion {
	return lvm.Completion{
		Req:     req,
		DiskIdx: c.DiskIdx,
		Cost: disk.AccessCost{
			CommandMs:  c.Cost.CommandMs * f,
			SeekMs:     c.Cost.SeekMs * f,
			RotateMs:   c.Cost.RotateMs * f,
			TransferMs: c.Cost.TransferMs * f,
		},
		FinishMs: c.FinishMs,
	}
}

// account folds one served admission batch into the service totals,
// mirroring exactly the folds the sessions will perform.
func (s *Service) account(items []*serviceOp, results []opResult, issued int64, elapsed float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.totals
	t.Batches++
	if len(items) > 1 {
		t.MergedBatches++
	}
	t.MaxBatchChunks = max(t.MaxBatchChunks, len(items))
	t.IssuedRequests += issued
	clear(s.scratch.touched)
	for i, it := range items {
		r := &results[i]
		s.attribute(it.class, r.comps, 0, toCells, Stats{
			Padding:     it.chunk.Padding,
			Cells:       r.hitCells,
			CacheHits:   r.hits,
			CacheMisses: r.misses,
		}).Ops++
		s.scratch.touched[it.class] = true
	}
	s.attributeElapsed(elapsed)
}

// attribute is the one attribution fold: it folds one op's share of a
// served batch into the service's Attributed and into its class's, the
// same fold on both sides — the completions one by one, then the op's
// tallies (integer counters, or a flush share's pre-summed Stats) — so
// the class slices sum to the service's field for field. Returns the
// class's bucket. Caller holds mu.
func (s *Service) attribute(class string, comps []lvm.Completion, elapsed float64, sink blockSink, tally Stats) *ClassTotals {
	ct := s.classTot(class)
	for _, st := range [...]*Stats{&s.totals.Attributed, &ct.Attributed} {
		st.addCompletions(comps, elapsed, sink)
		st.Accumulate(tally)
	}
	return ct
}

// attributeElapsed folds a shared batch's elapsed time once into the
// service's Attributed and once per contributing class marked in
// scratch.touched — like sessions, summed class ElapsedMs is not
// additive. Caller holds mu.
func (s *Service) attributeElapsed(elapsed float64) {
	s.totals.Attributed.ElapsedMs += elapsed
	for class := range s.scratch.touched {
		s.classTot(class).Attributed.ElapsedMs += elapsed
	}
}
