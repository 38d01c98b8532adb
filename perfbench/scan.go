package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	multimap "repro"
	"repro/internal/dataset"
)

// scan is the paper reproduction (§5.3, Fig. 6): one closed-loop
// client, cache off, lockstep dispatch, the Fig-6 mix of beams along
// every dimension and cube ranges at 0.01-5% selectivity, run against
// all four layouts of the synthetic grid on an Atlas 10k III each.
//
// The grid is 160^3 rather than the paper's 259^3: set-up is repeated
// for setup_s, and 259^3 spends about 12 s per build in curve ranking.
// 160 is not a power of two, so the Z-order and Hilbert layouts still
// build a full rank table, as they do at 259.

var scanKinds = []multimap.Mapping{multimap.Naive, multimap.ZOrder, multimap.Hilbert, multimap.MultiMap}

// scanSelectivities are the Fig-6(b) selectivities (percent) of the mix.
var scanSelectivities = []float64{0.01, 0.1, 1, 5}

func scanDims(small bool) []int {
	if small {
		return []int{40, 40, 40}
	}
	return []int{160, 160, 160}
}

// scanOps draws one repeat's op list from the seed: beamsPerDim beams
// along each dimension and rangesPerSel cubes per selectivity, in a
// seeded random order.
func scanOps(dims []int, seed int64) ([]op, error) {
	const beamsPerDim, rangesPerSel = 12, 4
	grid, err := dataset.NewGrid(dims...)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	for dim := range dims {
		for i := 0; i < beamsPerDim; i++ {
			fixed, err := grid.RandomBeam(rng, dim)
			if err != nil {
				return nil, err
			}
			ops = append(ops, beamOp(dims, dim, fixed, ""))
		}
	}
	for _, sel := range scanSelectivities {
		for i := 0; i < rangesPerSel; i++ {
			lo, hi, err := grid.RandomRange(rng, sel/100)
			if err != nil {
				return nil, err
			}
			ops = append(ops, rangeOp(lo, hi, ""))
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, nil
}

type scanLayout struct {
	kind  multimap.Mapping
	vol   *multimap.Volume
	store *multimap.Store
	sess  *multimap.Session
}

type scanSystem struct {
	dims    []int
	ops     []op
	layouts []scanLayout
	// digest of the first repeat's simulated columns; every later
	// repeat must reproduce it.
	digest  string
	repeats int
	// simCols is Σ TotalMs / Σ Cells per layout over one repeat.
	simCols map[multimap.Mapping]float64
	opsDone int64
	// engAcc sums the service totals of the repeats already reset.
	engAcc engineTotals
}

func openScan(dims []int, ops []op) (*scanSystem, error) {
	s := &scanSystem{dims: dims, ops: ops}
	for _, k := range scanKinds {
		vol, err := multimap.OpenVolume(multimap.AtlasTenKIII)
		if err != nil {
			s.close()
			return nil, err
		}
		st, err := multimap.Open(vol, k, dims)
		if err != nil {
			vol.Close()
			s.close()
			return nil, fmt.Errorf("open %v: %w", k, err)
		}
		s.layouts = append(s.layouts, scanLayout{kind: k, vol: vol, store: st, sess: st.Begin()})
	}
	return s, nil
}

func (s *scanSystem) close() {
	for _, l := range s.layouts {
		l.store.Close()
		l.vol.Close()
	}
	s.layouts = nil
}

// phase runs whole repeats of the op list on every layout until d has
// elapsed, finishing the repeat in progress so each layout and op type
// keeps its share of the mix. Every repeat starts from reset heads, so
// its simulated columns must match the first repeat's bit for bit.
func (s *scanSystem) phase(d time.Duration, tr *tracer) (*tally, error) {
	ctx := context.Background()
	t := &tally{}
	start := time.Now()
	for {
		seg := segment{}
		repStart := time.Now()
		// Reset restores the heads and zeroes each store's service
		// totals; a fresh session per repeat keeps the attribution check
		// to the repeat's own work.
		for i := range s.layouts {
			l := &s.layouts[i]
			s.engAcc = s.engAcc.add(totalsOf(l.store.Metrics().Totals, l.store.ClassTotals()))
			l.store.Reset()
			l.sess = l.store.Begin()
		}
		h := sha256.New()
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		perKind := map[multimap.Mapping][2]float64{}
		for i := range s.ops {
			o := &s.ops[i]
			for li, l := range s.layouts {
				s.opsDone++
				name, call := "Session.RangeQuery", func() (multimap.Stats, error) { return l.sess.RangeQuery(ctx, o.lo, o.hi) }
				if o.kind == opBeam {
					name, call = "Session.Beam", func() (multimap.Stats, error) { return l.sess.Beam(ctx, o.dim, o.fixed) }
				}
				sp := tr.begin("op", "scan."+l.kind.String(), 0, s.opsDone)
				cs := tr.begin("multimap", name, sp.id, s.opsDone)
				t0 := time.Now()
				st, err := call()
				lat := time.Since(t0)
				cs.end()
				sp.end()
				// Unchunked, a result arrives whole: its first chunk is the call.
				smp := sample{op: o, lat: lat, first: lat, st: st, err: err}
				t.add(smp, func(*op) bool { return true })
				seg.add(smp)
				for _, v := range []float64{st.TotalMs, st.CommandMs, st.SeekMs, st.RotateMs, st.TransferMs} {
					put(math.Float64bits(v))
				}
				put(uint64(li))
				put(uint64(st.Cells))
				put(uint64(st.Padding))
				put(uint64(st.Requests))
				pk := perKind[l.kind]
				perKind[l.kind] = [2]float64{pk[0] + st.TotalMs, pk[1] + float64(st.Cells)}
			}
		}
		for _, l := range s.layouts {
			if err := checkAttribution(l.sess.Stats(), l.store.Metrics().Totals.Attributed); err != nil {
				t.problems = append(t.problems, fmt.Sprintf("%v repeat %d: %v", l.kind, s.repeats, err))
			}
		}
		digest := hex.EncodeToString(h.Sum(nil))[:16]
		if s.digest == "" {
			s.digest = digest
			s.simCols = map[multimap.Mapping]float64{}
			for k, v := range perKind {
				s.simCols[k] = ratio(v[0], v[1])
			}
		} else if digest != s.digest {
			t.problems = append(t.problems, fmt.Sprintf("scan repeat %d: simulated columns digest %s, first repeat %s", s.repeats, digest, s.digest))
		}
		seg.dur = time.Since(repStart)
		t.segs = append(t.segs, seg)
		s.repeats++
		if time.Since(start) >= d {
			return t, nil
		}
	}
}

// check has nothing left to do: phase compares every repeat's session
// totals with its stores' attributed totals as the repeat ends.
func (s *scanSystem) check() []string { return nil }

func (s *scanSystem) lines() []string {
	out := []string{
		fmt.Sprintf("dataset: synthetic grid %v on atlas10k3, one volume per layout; cache off, lockstep dispatch", s.dims),
		fmt.Sprintf("mix per repeat: %d ops x %d layouts; %d repeats", len(s.ops), len(s.layouts), s.repeats),
		fmt.Sprintf("simulated columns digest %s (identical across all %d repeats)", s.digest, s.repeats),
	}
	for _, k := range scanKinds {
		out = append(out, fmt.Sprintf("sim ms/cell %-8v %.6f", k, s.simCols[k]))
	}
	return out
}

func buildScan(cfg config) (system, float64, error) {
	dims := scanDims(cfg.small)
	ops, err := scanOps(dims, cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	s, setupS, err := timeSetups(cfg.small, func() (*scanSystem, error) { return openScan(dims, ops) }, (*scanSystem).close)
	if err != nil {
		return nil, 0, err
	}
	return s, setupS, nil
}

// engine sums the stores' bookkeeping over every repeat: the totals of
// repeats already reset plus the current ones.
func (s *scanSystem) engine() (engineTotals, error) {
	e := s.engAcc
	for _, l := range s.layouts {
		e = e.add(totalsOf(l.store.Metrics().Totals, l.store.ClassTotals()))
	}
	return e, nil
}

// queueDepth runs beside phase, which replaces each layout's session
// per repeat, so it reads only the store fields.
func (s *scanSystem) queueDepth() (int, error) {
	n := 0
	for i := range s.layouts {
		n += s.layouts[i].store.Metrics().QueueDepth
	}
	return n, nil
}

func (s *scanSystem) layers(m map[string]float64, tr *tracer) error {
	m["disk.sim_ms_per_cell"] = s.simCols[multimap.MultiMap]
	m["disk.sim_ms_per_cell.naive"] = s.simCols[multimap.Naive]
	m["disk.sim_ms_per_cell.zorder"] = s.simCols[multimap.ZOrder]
	m["disk.sim_ms_per_cell.hilbert"] = s.simCols[multimap.Hilbert]
	for _, l := range s.layouts {
		if l.kind == multimap.MultiMap {
			m["shard.imbalance"] = imbalance(l.store.ShardServiceTotals())
		}
	}
	spec := replaySpec{kinds: scanKinds, dims: s.dims, shards: 1}
	for i := range s.ops {
		lo, hi := s.ops[i].box(s.dims)
		spec.boxes = append(spec.boxes, [2][]int{lo, hi})
	}
	return replayLayers(m, tr, spec)
}
