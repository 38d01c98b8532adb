package engine

import (
	"cmp"
	"slices"
	"strings"
	"time"
)

// Admission scheduling. Every admission pass goes through one
// deficit-round-robin scheduler (drrSched); the service options pick
// its lanes, its credit and whether it runs an urgent front.
//
// Lanes. With FairQuantum positive each QoS class (SessionOptions.Class,
// registered with a weight via ServiceOptions.Classes / SetFairShare)
// is a lane of its own. Otherwise all ops share one lane, so ops of
// different classes still coalesce into one disk batch.
//
// Credit. With FairQuantum positive each pass grants every backlogged
// lane quantum × weight blocks of credit (deficits carry across passes
// while the lane stays backlogged, and reset when its backlog drains,
// the classic DRR anti-hoarding rule), admits the lane's ops FIFO while
// its credit covers their simulated block cost, and serves every
// lane's grant as its own admission batch: ops of different classes
// are never coalesced, so one class's bulk scan cannot ride ahead
// inside another's batch. Ops a pass could not afford stay in the
// backlog for the next pass; the loop keeps making passes (each
// granting fresh credit, each after the BatchWindow when one is set,
// and always admitting at least one op when anything is pending, so a
// single op costlier than its class's whole grant still goes) until
// the backlog drains. With FairQuantum 0 a lane's credit is unbounded:
// each pass admits the whole backlog in submission order, which is
// plain FIFO admission.
//
// Urgent front. When FairQuantum or DeadlineAging is positive, each
// pass first serves the urgent ops as their own batch, ordered by
// effective deadline and ahead of every lane's grant: ops with an
// explicit context deadline, ops queued at least the DeadlineAging
// duration, and (under fair share only) ops of a class registered
// Urgent. Aging therefore promotes a starving deferred op into the
// urgent front, which bounds how long weighted sharing may defer
// anyone. Urgent service is not charged against the lane's deficit.

// QoSClass declares one admission class.
type QoSClass struct {
	// Name is the class label sessions reference via
	// SessionOptions.Class. The empty name is the default class every
	// unlabelled session belongs to.
	Name string
	// Weight is the class's share of each admission pass: a pass
	// grants the class FairQuantum × Weight blocks of credit. Values
	// below 1 are treated as 1.
	Weight int
	// Urgent marks a strict-priority class: its ops always join the
	// urgent front batch (ahead of all weighted sharing), exactly as
	// if each carried an explicit context deadline.
	Urgent bool
}

// DefaultFairQuantum is the DRR quantum applied when fair-share
// admission is enabled with a zero quantum: blocks of admission credit
// per weight unit per pass.
const DefaultFairQuantum = int64(1024)

// weight returns the registered weight of a class (1 for unregistered
// classes, and at least 1 always).
func classWeight(classes map[string]QoSClass, name string) int64 {
	if c, ok := classes[name]; ok && c.Weight > 1 {
		return int64(c.Weight)
	}
	return 1
}

// opCost is the DRR measure of one work op: the simulated blocks it
// asks for. A zero-block op costs 1 so admission always drains it.
func opCost(op *serviceOp) int64 {
	var n int64
	for _, r := range op.chunk.Reqs {
		n += int64(r.Count)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// drrSched is the loop-owned deficit-round-robin state: per-lane FIFO
// backlogs and credit counters. Only the service loop touches it.
type drrSched struct {
	pending map[string][]*serviceOp
	deficit map[string]int64
	count   int
	// lanes, urgent and groups are per-pass results reused across
	// passes, so the admission hot path allocates nothing in steady
	// state. Each is valid until the next call that returns it.
	lanes  []string
	urgent []*serviceOp
	groups [][]*serviceOp
}

func newDRRSched() *drrSched {
	return &drrSched{
		pending: make(map[string][]*serviceOp),
		deficit: make(map[string]int64),
	}
}

// push appends ops to their lanes in submission order: one lane per
// class under fair share, one shared lane otherwise.
func (d *drrSched) push(ops []*serviceOp, fair bool) {
	for _, op := range ops {
		lane := ""
		if fair {
			lane = op.class
		}
		d.pending[lane] = append(d.pending[lane], op)
		d.count++
	}
}

// activeLanes returns the backlogged lanes in sorted order — the
// deterministic round-robin sequence.
func (d *drrSched) activeLanes() []string {
	d.lanes = d.lanes[:0]
	for name, q := range d.pending {
		if len(q) > 0 {
			d.lanes = append(d.lanes, name)
		}
	}
	slices.Sort(d.lanes)
	return d.lanes
}

// takeUrgent pulls every backlogged op that has become urgent — aged
// past the aging cap, holding an explicit deadline, or in a class that
// classes registers Urgent — out of the lanes, in lane order and
// preserving order within each lane. This is how aging promotes a
// DRR-deferred op into the urgent front.
func (d *drrSched) takeUrgent(classes map[string]QoSClass, aging time.Duration, now time.Time) []*serviceOp {
	d.urgent = d.urgent[:0]
	for _, name := range d.activeLanes() {
		q := d.pending[name]
		kept := q[:0]
		for _, op := range q {
			if isUrgent(op, classes, aging, now) {
				d.urgent = append(d.urgent, op)
				d.count--
			} else {
				kept = append(kept, op)
			}
		}
		d.pending[name] = kept
	}
	return d.urgent
}

// grant runs one DRR round: every backlogged lane earns quantum ×
// weight credit, then admits ops FIFO while the credit covers their
// block cost; a quantum of 0 is unbounded credit, admitting the whole
// backlog. A lane whose backlog drains forfeits its leftover credit.
// When a full round admits nothing (every lane's head op costs more
// than its accumulated credit), rounds repeat until one op is admitted
// — progress per pass is guaranteed. Returns the admitted ops grouped
// per lane, cheapest group first: groups are served sequentially
// within the pass, so a light latency-sensitive group (an interactive
// class's point reads) completes ahead of a heavy scan group's
// simulation instead of waiting it out, at the cost of delaying the
// heavy group by only the light groups' small service time. Ties break
// on class name, keeping the order deterministic.
func (d *drrSched) grant(classes map[string]QoSClass, quantum int64) [][]*serviceOp {
	d.groups = d.groups[:0]
	if d.count == 0 {
		return nil
	}
	for len(d.groups) == 0 {
		for _, name := range d.activeLanes() {
			q := d.pending[name]
			n := len(q)
			if quantum > 0 {
				d.deficit[name] += quantum * classWeight(classes, name)
				n = 0
				for n < len(q) && opCost(q[n]) <= d.deficit[name] {
					d.deficit[name] -= opCost(q[n])
					n++
				}
			}
			if n == 0 {
				continue
			}
			d.groups = append(d.groups, q[:n:n])
			d.count -= n
			if n < len(q) {
				d.pending[name] = q[n:]
				continue
			}
			// Drained: the next push reuses the backing array, which
			// the group above only reads until this pass has served it.
			d.pending[name] = q[:0]
			d.deficit[name] = 0
		}
	}
	slices.SortStableFunc(d.groups, func(a, b []*serviceOp) int {
		if c := cmp.Compare(groupCost(a), groupCost(b)); c != 0 {
			return c
		}
		return strings.Compare(a[0].class, b[0].class)
	})
	return d.groups
}

// groupCost is one admitted group's total simulated block cost.
func groupCost(group []*serviceOp) int64 {
	var sum int64
	for _, op := range group {
		sum += opCost(op)
	}
	return sum
}

// drain empties every backlog — ops grouped per lane in sorted lane
// order, FIFO within each lane — forfeiting all credit. Used before
// control-op barriers and on close, where deferral would reorder ops
// across a barrier or strand submitters.
func (d *drrSched) drain() [][]*serviceOp {
	if d.count == 0 {
		return nil
	}
	var groups [][]*serviceOp
	for _, name := range d.activeLanes() {
		groups = append(groups, d.pending[name])
		d.pending[name] = nil
		d.deficit[name] = 0
	}
	d.count = 0
	return groups
}

// isUrgent classifies one op for the strict-priority front: explicit
// context deadline, a class classes registers Urgent, or queued at
// least the aging cap.
func isUrgent(op *serviceOp, classes map[string]QoSClass, aging time.Duration, now time.Time) bool {
	if !op.deadline.IsZero() {
		return true
	}
	if c, ok := classes[op.class]; ok && c.Urgent {
		return true
	}
	return aging > 0 && now.Sub(op.enqueued) >= aging
}

// sortUrgent orders the urgent front batch by effective deadline: the
// explicit context deadline when present, otherwise enqueue time plus
// the aging cap (plain enqueue time when aging is off).
func sortUrgent(ops []*serviceOp, aging time.Duration) {
	eff := func(op *serviceOp) time.Time {
		if !op.deadline.IsZero() {
			return op.deadline
		}
		return op.enqueued.Add(aging)
	}
	slices.SortStableFunc(ops, func(a, b *serviceOp) int { return eff(a).Compare(eff(b)) })
}

// ClassTotals is one QoS class's slice of the service bookkeeping.
// Summing every class's Attributed reproduces ServiceTotals.Attributed
// field for field — the attribution-sum property, now per class —
// except ElapsedMs: a batch's elapsed time is observed once per
// contributing class (like sessions observe it), so summed class
// ElapsedMs can exceed the service's.
type ClassTotals struct {
	// Class is the class name ("" is the default class).
	Class string
	// Ops counts work ops (read chunks and writes) served or absorbed
	// for the class; UrgentOps counts the subset that went through the
	// strict-priority front; Deferred counts deferral events — an op
	// held back by DRR for at least one admission pass.
	Ops       int64
	UrgentOps int64
	Deferred  int64
	// Attributed is the class's share of ServiceTotals.Attributed:
	// exactly what was handed back to the class's sessions.
	Attributed Stats
}
