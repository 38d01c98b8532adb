package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// admissionOp is one op of the golden admission list: a name, a QoS
// class, a block cost, and synthetic stamps relative to a base instant.
// A zero enqueue offset marks an op enqueued an hour ago (aged past any
// cap); other ops are enqueued in the future, so they never age while
// the test runs. A non-zero deadline offset gives the op an explicit
// deadline.
type admissionOp struct {
	name, class string
	cost        int
	enqueue     time.Duration
	deadline    time.Duration
}

// goldenAdmissionOps is the fixed submission order every mode admits.
var goldenAdmissionOps = []admissionOp{
	{name: "b1", class: "bulk", cost: 6, enqueue: time.Hour + 1*time.Millisecond},
	{name: "u1", class: "rt", cost: 4, enqueue: time.Hour + 2*time.Millisecond},
	{name: "i1", class: "int", cost: 5, enqueue: time.Hour + 3*time.Millisecond},
	{name: "d1", class: "bulk", cost: 4, enqueue: time.Hour + 4*time.Millisecond, deadline: 2 * time.Hour},
	{name: "x1", class: "", cost: 3, enqueue: time.Hour + 5*time.Millisecond},
	{name: "b2", class: "bulk", cost: 6, enqueue: time.Hour + 6*time.Millisecond},
	{name: "a1", class: "bulk", cost: 4},
	{name: "i2", class: "int", cost: 5, enqueue: time.Hour + 7*time.Millisecond},
	{name: "b3", class: "bulk", cost: 6, enqueue: time.Hour + 8*time.Millisecond},
	{name: "i3", class: "int", cost: 5, enqueue: time.Hour + 9*time.Millisecond},
}

// runAdmission pushes the golden op list through serveWork on a fresh
// service — then pure backlog passes until every op has replied — and
// returns the served batches as "[a b] [c]" (batch partition and order
// within each batch) plus the service's class totals.
func runAdmission(t *testing.T, opts ServiceOptions, aging time.Duration) (string, []ClassTotals) {
	t.Helper()
	svc := NewService(testVolume(t), opts)
	defer svc.Close()
	base := time.Now()
	var served []string
	var lastBatch int64 = -1
	ops := make([]*serviceOp, len(goldenAdmissionOps))
	for i, spec := range goldenAdmissionOps {
		op := &serviceOp{
			kind:     opChunk,
			class:    spec.class,
			enqueued: base.Add(spec.enqueue - time.Hour),
			policy:   disk.SchedSPTF,
			reply:    make(chan opResult, 1),
			chunk: Chunk{Reqs: []lvm.Request{{VLBN: int64(1000 * (i + 1)), Count: spec.cost}},
				Policy: disk.SchedSPTF},
		}
		if spec.enqueue != 0 {
			op.enqueued = base.Add(spec.enqueue)
		}
		if spec.deadline != 0 {
			op.deadline = base.Add(spec.deadline)
		}
		name := spec.name
		op.trace = func([]lvm.Completion) {
			b := svc.Totals().Batches
			if b != lastBatch {
				if lastBatch >= 0 {
					served = append(served, "] ")
				}
				served = append(served, "[")
				lastBatch = b
			} else {
				served = append(served, " ")
			}
			served = append(served, name)
		}
		ops[i] = op
	}
	replied := func() bool {
		for _, op := range ops {
			if len(op.reply) == 0 {
				return false
			}
		}
		return true
	}
	svc.serveWork(append([]*serviceOp(nil), ops...), aging)
	for pass := 0; !replied(); pass++ {
		if pass > 100 {
			t.Fatal("backlog never drained")
		}
		svc.serveWork(nil, aging)
	}
	for _, op := range ops {
		if r := <-op.reply; r.err != nil {
			t.Fatal(r.err)
		}
	}
	return strings.Join(served, "") + "]", svc.ClassTotals()
}

// deferredByClass renders ClassTotals.Deferred as "class=n" pairs.
func deferredByClass(cts []ClassTotals) string {
	var parts []string
	for _, ct := range cts {
		parts = append(parts, fmt.Sprintf("%q=%d", ct.Class, ct.Deferred))
	}
	return strings.Join(parts, " ")
}

// TestAdmissionGolden pins the admission scheduler's served batches on
// a fixed op list in its three regimes: FIFO (fair share and aging
// off) admits the whole pass as one batch in submission order; aging
// alone carves deadline-carrying and over-age ops into a front batch
// ordered by effective deadline, ahead of the bulk in submission
// order; fair share with an Urgent class and aging serves the urgent
// front (deadline, aged, and Urgent-class ops), then per-class DRR
// grants cheapest group first, deferring what the credit cannot cover.
func TestAdmissionGolden(t *testing.T) {
	fair := ServiceOptions{
		FairQuantum: 4,
		Classes: []QoSClass{
			{Name: "bulk", Weight: 1},
			{Name: "int", Weight: 2},
			{Name: "rt", Weight: 1, Urgent: true},
		},
	}
	cases := []struct {
		name     string
		opts     ServiceOptions
		aging    time.Duration
		batches  string
		deferred string
	}{
		{
			name:     "fifo",
			batches:  "[b1 u1 i1 d1 x1 b2 a1 i2 b3 i3]",
			deferred: `""=0 "bulk"=0 "int"=0 "rt"=0`,
		},
		{
			name:     "aging",
			aging:    10 * time.Millisecond,
			batches:  "[a1 d1] [b1 u1 i1 x1 b2 i2 b3 i3]",
			deferred: `""=0 "bulk"=0 "int"=0 "rt"=0`,
		},
		{
			name:     "fair+urgent+aging",
			opts:     fair,
			aging:    10 * time.Millisecond,
			batches:  "[a1 u1 d1] [x1] [i1] [b1] [i2 i3] [b2] [b3]",
			deferred: `""=0 "bulk"=3 "int"=2 "rt"=0`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batches, cts := runAdmission(t, tc.opts, tc.aging)
			if batches != tc.batches {
				t.Errorf("served batches\n got %s\nwant %s", batches, tc.batches)
			}
			if got := deferredByClass(cts); got != tc.deferred {
				t.Errorf("deferred per class\n got %s\nwant %s", got, tc.deferred)
			}
		})
	}
}
