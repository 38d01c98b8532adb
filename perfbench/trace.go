package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the exported function it calls. Spans of one operation share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span; end closes it.
type active struct {
	t      *tracer
	id     int64
	parent int64
	req    int64
	name   string
	layer  string
	start  time.Time
}

// begin opens a span under parent (0 for a root) for request req.
func (t *tracer) begin(layer, name string, parent, req int64) active {
	if t == nil {
		return active{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return active{t: t, id: id, parent: parent, req: req, name: name, layer: layer, start: time.Now()}
}

func (a active) end() {
	if a.t == nil {
		return
	}
	end := time.Now()
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, span{
		ID: a.id, Parent: a.parent, Req: a.req, Name: a.name, Layer: a.layer,
		Start: int64(a.start.Sub(a.t.epoch)), End: int64(end.Sub(a.t.epoch)),
	})
	a.t.mu.Unlock()
}

// selfTimes returns each layer's self time in seconds: the sum over its
// spans of the span's duration minus the part of that interval covered
// by its child spans (children of one parent may overlap when a layer
// runs them concurrently, so their union is subtracted).
func selfTimes(spans []span) map[string]float64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		d := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		self[s.Layer] += float64(d) / 1e9
	}
	return self
}

// covered is the length of the union of intervals, clipped to [lo, hi).
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, x := range iv {
		if curHi < 0 || x[0] > curHi {
			if curHi >= 0 {
				flush()
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	flush()
	return total
}

// write stores the spans as JSON lines, followed by one line holding
// the per-layer self times.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"self_time_s": selfTimes(t.spans)}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
