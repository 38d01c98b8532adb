package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	multimap "repro"
	"repro/internal/dataset"
	"repro/internal/mapping"
)

// churn is mixed reads and writes under cache pressure, in process
// through the public API. The store is MultiMap on a 128^3 grid split
// over two shards, with write-back, weighted-fair admission
// (interactive:1, bulk:4, writer:1), the update path, and a 16 Ki-block
// extent cache: much smaller than the 2 Mi-cell uniform working set, so
// reads keep evicting. Each client holds one session per class and
// draws each op from the mix below. It exercises extent-cache eviction
// and write invalidation, group-commit batches, the DRR backlog, shard
// scatter-gather and overflow chains; the daemon and the space-filling
// curves are bypassed.
const (
	churnCache      = 16 << 10 // blocks
	churnShards     = 2
	churnListLen    = 4096 // ops per client list (cycled)
	churnWriteCells = 64   // cells per client that receive its inserts
	churnCellPoints = 8    // points per block, so insert chains overflow quickly
	churnWarmBeams  = 150  // warm-up bulk beams, then
	churnWarmRanges = 300  // interactive ranges (see churnLists)
	churnReadFrac   = 0.6  // interactive small ranges
	churnBulkFrac   = 0.1  // bulk beams; the rest are inserts
)

var churnClasses = []struct {
	name   string
	weight int
}{{"interactive", 1}, {"bulk", 4}, {"writer", 1}}

func churnDims(small bool) []int {
	if small {
		return []int{32, 32, 32}
	}
	return []int{128, 128, 128}
}

// churnLists draws each client's op list from the seed: interactive
// cubes of side 2-6 anywhere in the grid, bulk beams, and inserts.
// Inserts alternate between the client's own write set, so that insert
// chains grow into overflow pages, and a cell of the client's latest
// interactive range, whose blocks that read has just cached, so that
// writes invalidate cached blocks.
//
// It also draws the warm-up: bulk beams first, which fill the cache
// past the bulk class's reserve, then interactive ranges, which settle
// every class at its steady share before timing starts.
//
// Every list holds the mix's exact shares, beams cycle through the
// dimensions and cube sides through 2-6: the seed moves where ops read
// and write and their order, not how much work a list holds.
func churnLists(dims []int, clients int, seed int64) (lists [][]op, warm []op, err error) {
	grid, err := dataset.NewGrid(dims...)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	cube := func(i int) (op, error) {
		side := float64(2 + i%5)
		lo, hi, err := grid.RandomRange(rng, side*side*side/float64(grid.Cells()))
		return rangeOp(lo, hi, "interactive"), err
	}
	beam := func(i int) (op, error) {
		fixed, err := grid.RandomBeam(rng, i%len(dims))
		return beamOp(dims, i%len(dims), fixed, "bulk"), err
	}
	reads, bulk := int(math.Round(churnReadFrac*churnListLen)), int(math.Round(churnBulkFrac*churnListLen))
	lists = make([][]op, clients)
	for c := range lists {
		writeSet := make([][]int, churnWriteCells)
		for i := range writeSet {
			lo, _, err := grid.RandomRange(rng, 1/float64(grid.Cells()))
			if err != nil {
				return nil, nil, err
			}
			writeSet[i] = lo
		}
		kinds := make([]opKind, churnListLen)
		for i := range kinds {
			switch {
			case i < reads:
				kinds[i] = opRange
			case i < reads+bulk:
				kinds[i] = opBeam
			default:
				kinds[i] = opInsert
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		var last op             // latest interactive range
		var n [opInsert + 1]int // ops of each kind so far
		for _, k := range kinds {
			i := n[k]
			n[k]++
			var o op
			switch k {
			case opRange:
				o, err = cube(i)
			case opBeam:
				o, err = beam(i)
			default:
				cell := writeSet[rng.Intn(len(writeSet))]
				if i%2 == 1 && last.lo != nil {
					cell = make([]int, len(dims))
					for d := range cell {
						cell[d] = last.lo[d] + rng.Intn(last.hi[d]-last.lo[d])
					}
				}
				o = op{kind: opInsert, class: "writer", cell: cell}
			}
			if err != nil {
				return nil, nil, err
			}
			lists[c] = append(lists[c], o)
			if k == opRange {
				last = o
			}
		}
	}
	for i := 0; i < churnWarmBeams; i++ {
		o, err := beam(i)
		if err != nil {
			return nil, nil, err
		}
		warm = append(warm, o)
	}
	for i := 0; i < churnWarmRanges; i++ {
		o, err := cube(i)
		if err != nil {
			return nil, nil, err
		}
		warm = append(warm, o)
	}
	return lists, warm, nil
}

type churnSystem struct {
	dims     []int
	lists    [][]op
	vol      *multimap.Volume
	store    *multimap.Store
	sessions []map[string]*multimap.Session // per client, by class, then warm-up

	mu       sync.Mutex
	inserted map[[3]int]int // successful inserts per cell
	writes   int64

	untracedTally *tally
	opsDone       atomic.Int64
}

func openChurn(dims []int, lists [][]op, warm []op) (*churnSystem, error) {
	vol, err := multimap.OpenVolume(multimap.AtlasTenKIII)
	if err != nil {
		return nil, err
	}
	opts := []multimap.Option{
		multimap.WithShards(churnShards),
		multimap.WithWriteBack(0, 0), // the engine's default watermark and interval
		multimap.WithFairShare(0),    // the engine's default quantum
		multimap.Updatable(multimap.UpdateOptions{PointsPerBlock: churnCellPoints}),
		multimap.WithCache(churnCache),
	}
	for _, c := range churnClasses {
		opts = append(opts, multimap.WithQoSClass(c.name, c.weight, false))
	}
	st, err := multimap.Open(vol, multimap.MultiMap, dims, opts...)
	if err != nil {
		vol.Close()
		return nil, err
	}
	s := &churnSystem{dims: dims, lists: lists, vol: vol, store: st, inserted: map[[3]int]int{}}
	for i := 0; i <= len(lists); i++ {
		byClass := map[string]*multimap.Session{}
		for _, c := range churnClasses {
			byClass[c.name] = st.BeginQoS(c.name)
		}
		s.sessions = append(s.sessions, byClass)
	}
	for i := range warm {
		if smp := s.do(len(lists), &warm[i], nil, 0); smp.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", smp.err)
		}
	}
	return s, nil
}

func (s *churnSystem) close() {
	s.store.Close()
	s.vol.Close()
}

func (s *churnSystem) do(c int, o *op, tr *tracer, req int64) sample {
	ctx := context.Background()
	q := s.sessions[c][o.class]
	sp := tr.begin("op", "churn."+o.class, 0, req)
	defer sp.end()
	switch o.kind {
	case opRange:
		call := tr.begin("multimap", "Session.RangeQueryStream", sp.id, req)
		defer call.end()
		return timedRange(ctx, q, o)
	case opBeam:
		call := tr.begin("multimap", "Session.Beam", sp.id, req)
		defer call.end()
		return inProcessRead(ctx, q, o)
	}
	call := tr.begin("multimap", "Session.Insert", sp.id, req)
	start := time.Now()
	st, err := q.Insert(ctx, o.cell)
	lat := time.Since(start)
	call.end()
	if err == nil {
		s.mu.Lock()
		s.inserted[[3]int(o.cell)]++
		s.writes++
		s.mu.Unlock()
	}
	return sample{op: o, lat: lat, st: st, err: err}
}

func (s *churnSystem) phase(d time.Duration, tr *tracer) (*tally, error) {
	interactive := func(o *op) bool { return o.class == "interactive" }
	t, _ := closedLoop(d, s.lists, false, interactive, func(c int, o *op) sample {
		return s.do(c, o, tr, s.opsDone.Add(1))
	})
	if tr == nil {
		s.untracedTally = t
	}
	return t, nil
}

func (s *churnSystem) engine() (engineTotals, error) {
	return totalsOf(s.store.Metrics().Totals, s.store.ClassTotals()), nil
}

func (s *churnSystem) queueDepth() (int, error) { return s.store.Metrics().QueueDepth, nil }

// check flushes the write-back buffer, compares each inserted cell's
// point count with the inserts the benchmark counted (cells start
// empty), and compares the summed session Stats with the store's
// attributed totals.
func (s *churnSystem) check() []string {
	var out []string
	if err := s.sessions[0]["writer"].Flush(context.Background()); err != nil {
		return []string{fmt.Sprintf("flush: %v", err)}
	}
	for cell, n := range s.inserted {
		got, err := s.store.Points(cell[:])
		if err != nil {
			out = append(out, fmt.Sprintf("points %v: %v", cell, err))
		} else if got != n {
			out = append(out, fmt.Sprintf("cell %v holds %d points after %d inserts", cell, got, n))
		}
	}
	var sum multimap.Stats
	for _, byClass := range s.sessions {
		for _, q := range byClass {
			sum.Accumulate(q.Stats())
		}
	}
	if err := checkAttribution(sum, s.store.Metrics().Totals.Attributed); err != nil {
		out = append(out, err.Error())
	}
	return out
}

func (s *churnSystem) lines() []string {
	chained := 0
	for cell := range s.inserted {
		if n, err := s.store.ChainLen(cell[:]); err == nil && n > 1 {
			chained++
		}
	}
	return []string{
		fmt.Sprintf("dataset: multimap grid %v on atlas10k3 x %d shards; cache %d blocks, write-back, fair share %v, updatable",
			s.dims, churnShards, churnCache, churnClasses),
		fmt.Sprintf("mix: %.0f%% interactive ranges, %.0f%% bulk beams, %.0f%% inserts (half into %d cells per client, half into the latest range read)",
			100*churnReadFrac, 100*churnBulkFrac, 100*(1-churnReadFrac-churnBulkFrac), churnWriteCells),
		fmt.Sprintf("inserts %d into %d cells, %d with overflow chains; cache hit rate %.4f",
			s.writes, len(s.inserted), chained, s.store.Metrics().CacheHitRate),
	}
}

func (s *churnSystem) layers(m map[string]float64, tr *tracer) error {
	t := s.untracedTally
	m["disk.sim_ms_per_cell"] = ratio(t.readSimMs, float64(t.cells))
	m["shard.imbalance"] = imbalance(s.store.ShardServiceTotals())
	m["core.reorgs_per_1k_writes"] = 1000 * ratio(float64(s.store.Reorganizations()), float64(s.writes))
	spec := replaySpec{kinds: []mapping.Kind{mapping.MultiMap}, dims: s.dims, shards: churnShards}
	for i := range s.lists[0] {
		if o := &s.lists[0][i]; o.read() {
			lo, hi := o.box(s.dims)
			spec.boxes = append(spec.boxes, [2][]int{lo, hi})
		}
	}
	return replayLayers(m, tr, spec)
}

func buildChurn(cfg config) (system, float64, error) {
	dims := churnDims(cfg.small)
	lists, warm, err := churnLists(dims, cfg.clients, cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	s, setupS, err := timeSetups(cfg.small, func() (*churnSystem, error) { return openChurn(dims, lists, warm) }, (*churnSystem).close)
	if err != nil {
		return nil, 0, err
	}
	return s, setupS, nil
}
