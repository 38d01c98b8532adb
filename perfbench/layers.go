package main

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/lvm"
	"repro/internal/mapping"
	"repro/internal/query"
	"repro/internal/sfc"
	"repro/internal/shard"
)

// replaySpec describes the layouts and boxes a workload exercises, so
// the traced run can drive the same work through the lower layers'
// exported entry points one layer at a time.
type replaySpec struct {
	kinds      []mapping.Kind
	dims       []int
	chunkCells int64
	shards     int
	boxes      [][2][]int
}

// replayLayers replays spec.boxes single-threaded on a private copy of
// each layout (lvm.New + mapping.New + query.NewExecutorOptions) and
// records the sfc, mapping, query, disk and shard per-layer metrics.
// Every call into a layer runs inside a span; each box is one request.
func replayLayers(m map[string]float64, tr *tracer, spec replaySpec) error {
	var (
		rankBuild, keyTime, mapBuild, boxTime, planTime, serveTime time.Duration
		keyCalls, cells, boxReqs, chunks, ops                      int64
		padding, blocks, served, batches                           int64
		mmCells                                                    int64
		mmCost                                                     disk.AccessCost
	)
	req := int64(1 << 40) // replay request ids stay clear of the live run's
	for _, kind := range spec.kinds {
		if curve, err := newCurve(kind, spec.dims); err != nil {
			return err
		} else if curve != nil {
			sp := tr.begin("sfc", "NewRanked", 0, req)
			t0 := time.Now()
			if _, err := sfc.NewRanked(curve); err != nil {
				return err
			}
			rankBuild += time.Since(t0)
			sp.end()
			for _, b := range spec.boxes {
				req++
				sp := tr.begin("sfc", "Curve.Key", 0, req)
				cell := append([]int(nil), b[0]...)
				t0 := time.Now()
				for {
					if _, err := curve.Key(cell); err != nil {
						return err
					}
					keyCalls++
					if !nextCell(cell, b[0], b[1]) {
						break
					}
				}
				keyTime += time.Since(t0)
				sp.end()
			}
		}

		vol, err := lvm.New(0, disk.AtlasTenKIII())
		if err != nil {
			return err
		}
		sp := tr.begin("mapping", "New", 0, req)
		t0 := time.Now()
		mp, err := mapping.New(kind, vol, spec.dims, mapping.Options{DiskIdx: 0})
		if err != nil {
			return fmt.Errorf("mapping.New %v: %w", kind, err)
		}
		mapBuild += time.Since(t0)
		sp.end()

		for _, b := range spec.boxes {
			req++
			sp := tr.begin("mapping", "BoxRequests", 0, req)
			t0 := time.Now()
			n, err := expandBox(mp, b[0], b[1])
			if err != nil {
				return err
			}
			boxTime += time.Since(t0)
			sp.end()
			boxReqs += int64(n)
			cells += boxCells(b[0], b[1])
		}

		ex := query.NewExecutorOptions(vol, mp, query.ExecOptions{ChunkCells: spec.chunkCells})
		type batch struct {
			reqs   []lvm.Request
			policy disk.SchedPolicy
		}
		var plan []batch
		for _, b := range spec.boxes {
			req++
			root := tr.begin("query", "Plan", 0, req)
			t0 := time.Now()
			p, err := ex.Plan(b[0], b[1])
			if err != nil {
				return err
			}
			for {
				c, ok, err := nextChunk(tr, p, root.id, req)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				plan = append(plan, batch{reqs: c.Reqs, policy: c.Policy})
				chunks++
				padding += c.Padding
				for _, r := range c.Reqs {
					blocks += int64(r.Count)
				}
			}
			planTime += time.Since(t0)
			root.end()
			ops++
			if kind == mapping.MultiMap {
				mmCells += boxCells(b[0], b[1])
			}
		}

		vol.Reset()
		for _, bt := range plan {
			req++
			sp := tr.begin("disk", "lvm.ServeBatch", 0, req)
			t0 := time.Now()
			comps, _, err := vol.ServeBatch(bt.reqs, bt.policy)
			if err != nil {
				return err
			}
			serveTime += time.Since(t0)
			sp.end()
			served += int64(len(bt.reqs))
			batches++
			if kind == mapping.MultiMap {
				for _, c := range comps {
					mmCost.SeekMs += c.Cost.SeekMs
					mmCost.RotateMs += c.Cost.RotateMs
					mmCost.TransferMs += c.Cost.TransferMs
				}
			}
		}
	}

	// The router splits every generated box the way the store does.
	align := 1
	if spec.shards > 1 {
		vol, err := lvm.New(0, disk.AtlasTenKIII())
		if err != nil {
			return err
		}
		if align, err = mapping.Dim0Align(mapping.MultiMap, vol, spec.dims, mapping.Options{DiskIdx: 0}); err != nil {
			return err
		}
		// Relax the alignment until every shard owns a slab, as the
		// store's shard group does.
		for align > 1 && (spec.dims[0]+align-1)/align < spec.shards {
			align = (align + 1) / 2
		}
	}
	router, err := shard.NewRouter(spec.dims, max(spec.shards, 1), align)
	if err != nil {
		return err
	}
	var parts int
	for _, b := range spec.boxes {
		req++
		sp := tr.begin("shard", "Router.SplitBox", 0, req)
		parts += len(router.SplitBox(b[0], b[1]))
		sp.end()
	}

	nb := float64(len(spec.boxes))
	m["sfc.rank_build_s"] = rankBuild.Seconds()
	m["sfc.key_ns"] = ratio(float64(keyTime.Nanoseconds()), float64(keyCalls))
	m["mapping.build_s"] = mapBuild.Seconds()
	m["mapping.box_ns_per_cell"] = ratio(float64(boxTime.Nanoseconds()), float64(cells))
	m["mapping.reqs_per_cell"] = ratio(float64(boxReqs), float64(cells))
	m["query.plan_ns_per_cell"] = ratio(float64(planTime.Nanoseconds()), float64(cells))
	m["query.chunks_per_op"] = ratio(float64(chunks), float64(ops))
	m["query.padding_frac"] = ratio(float64(padding), float64(blocks))
	m["disk.serve_ns_per_req"] = ratio(float64(serveTime.Nanoseconds()), float64(served))
	m["disk.reqs_per_batch"] = ratio(float64(served), float64(batches))
	m["disk.seek_ms_per_cell"] = ratio(mmCost.SeekMs, float64(mmCells))
	m["disk.rotate_ms_per_cell"] = ratio(mmCost.RotateMs, float64(mmCells))
	m["disk.transfer_ms_per_cell"] = ratio(mmCost.TransferMs, float64(mmCells))
	m["shard.parts_per_op"] = ratio(float64(parts), nb)
	return nil
}

// nextChunk drains one chunk of a streaming plan inside its own span.
func nextChunk(tr *tracer, p engine.Plan, parent, req int64) (engine.Chunk, bool, error) {
	sp := tr.begin("query", "Plan.Next", parent, req)
	defer sp.end()
	return p.Next()
}

// newCurve returns the space-filling curve behind a curve layout, or
// nil for layouts that use none.
func newCurve(kind mapping.Kind, dims []int) (sfc.Curve, error) {
	switch kind {
	case mapping.ZOrder:
		return sfc.NewZOrder(dims)
	case mapping.Hilbert:
		return sfc.NewHilbert(dims)
	}
	return nil, nil
}

// expandBox runs the mapping layer's own expansion of a box into
// requests: BoxRequests for the curve layouts, one Dim0Run per row for
// the layouts built from Dim0 runs, one CellVLBN per cell otherwise.
// It returns the number of requests.
func expandBox(mp mapping.Mapper, lo, hi []int) (int, error) {
	if bp, ok := mp.(mapping.BoxPlanner); ok {
		reqs, err := bp.BoxRequests(lo, hi)
		return len(reqs), err
	}
	if r, ok := mp.(mapping.Dim0Runner); ok {
		n := 0
		cell := append([]int(nil), lo...)
		for {
			reqs, err := r.Dim0Run(cell, hi[0]-lo[0])
			if err != nil {
				return 0, err
			}
			n += len(reqs)
			if !nextRow(cell, lo, hi) {
				return n, nil
			}
		}
	}
	n := 0
	cell := append([]int(nil), lo...)
	for {
		if _, err := mp.CellVLBN(cell); err != nil {
			return 0, err
		}
		n++
		if !nextCell(cell, lo, hi) {
			return n, nil
		}
	}
}

// nextCell advances cell through [lo, hi) in row-major order, Dim0
// fastest; it reports false after the last cell.
func nextCell(cell, lo, hi []int) bool {
	for i := range cell {
		cell[i]++
		if cell[i] < hi[i] {
			return true
		}
		cell[i] = lo[i]
	}
	return false
}

// nextRow advances the dimensions above Dim0 only.
func nextRow(cell, lo, hi []int) bool {
	for i := 1; i < len(cell); i++ {
		cell[i]++
		if cell[i] < hi[i] {
			return true
		}
		cell[i] = lo[i]
	}
	return false
}
