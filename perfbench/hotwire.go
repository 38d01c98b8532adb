package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	multimap "repro"
	"repro/internal/dataset"
	"repro/internal/mapping"
	"repro/internal/server"
)

// hot-wire is read-mostly hot-set serving over the daemon: an
// in-process internal/server on loopback, one HTTP connection and one
// wire session per client. The store is MultiMap on a 128^3 grid with
// a 4 Mi-block extent cache, far more than the hot region (the first
// eighth of each dimension, 16^3 cells) and every beam through it. A
// warm-up pass runs every distinct op once, so timed requests are cache
// hits: host time goes to HTTP, JSON and NDJSON streaming, the session
// and admission path and the planner, while the simulated disk is
// bypassed.
const (
	hotStore      = "hot"
	hotQuantum    = 4       // op corners and sides are multiples of this
	hotChunkCells = 32      // small enough that ranges stream several chunks
	hotCacheBlock = 4 << 20 // 4 Mi blocks
	hotInflight   = 2
	// Copies of each distinct op in a client's list (cycled): 92 ranges
	// and 48 beams at full size.
	hotRangeCopies = 23
	hotBeamCopies  = 11
)

func hotDims(small bool) []int {
	if small {
		return []int{32, 32, 32}
	}
	return []int{128, 128, 128}
}

// hotOps returns the distinct quantized ops over the hot region: cubes
// of side q and 2q at every quantized corner, the whole region, and the
// beams along each dimension through every quantized point.
func hotOps(dims []int) []op {
	region := dims[0] / 8
	var ops []op
	for _, side := range []int{hotQuantum, 2 * hotQuantum, region} {
		for x := 0; x+side <= region; x += hotQuantum {
			for y := 0; y+side <= region; y += hotQuantum {
				for z := 0; z+side <= region; z += hotQuantum {
					ops = append(ops, rangeOp([]int{x, y, z}, []int{x + side, y + side, z + side}, ""))
				}
			}
		}
	}
	for dim := range dims {
		for a := 0; a < region; a += hotQuantum {
			for b := 0; b < region; b += hotQuantum {
				fixed, other := make([]int, len(dims)), []int{a, b}
				for i, k := 0, 0; i < len(dims); i++ {
					if i != dim {
						fixed[i] = other[k]
						k++
					}
				}
				ops = append(ops, beamOp(dims, dim, fixed, ""))
			}
		}
	}
	return ops
}

// hotLists gives each client every distinct range hotRangeCopies times
// and every beam hotBeamCopies times (80% ranges by count at full size)
// in an order drawn from the seed. A fixed composition keeps the
// seed from changing how many of the costly whole-region ranges a
// client runs.
func hotLists(distinct []op, clients int, seed int64) [][]op {
	var base []op
	for _, o := range distinct {
		n := hotBeamCopies
		if o.kind == opRange {
			n = hotRangeCopies
		}
		for i := 0; i < n; i++ {
			base = append(base, o)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	lists := make([][]op, clients)
	for c := range lists {
		lists[c] = append([]op(nil), base...)
		rng.Shuffle(len(base), func(i, j int) { lists[c][i], lists[c][j] = lists[c][j], lists[c][i] })
	}
	return lists
}

// countingListener counts the bytes every accepted connection carries
// in both directions.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

type hotWire struct {
	dims     []int
	distinct []op
	lists    [][]op

	srv      *server.Server
	hs       *http.Server
	ln       *countingListener
	served   chan struct{}
	ctl      *server.Client // warm-up, metrics and checks
	clients  []*server.Client
	sessions []string // one per client, then the warm-up session

	// The untraced phase's tally, per-client tallies and wire bytes, for
	// the paired in-process comparison of the traced run.
	untraced      *tally
	untracedPer   []*tally
	untracedBytes int64
	opsDone       atomic.Int64
	pairing       bool // a traced run: keep the untraced phase for pairing
}

// newWireClient is a daemon client with a connection of its own.
func newWireClient(addr string) *server.Client {
	c := server.NewClient(addr)
	c.HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return c
}

func openHotWire(dims []int, distinct []op, lists [][]op, pairing bool) (*hotWire, error) {
	ctx := context.Background()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hotWire{dims: dims, distinct: distinct, lists: lists, pairing: pairing, srv: server.New(),
		ln: &countingListener{Listener: ln}, served: make(chan struct{})}
	h.hs = &http.Server{Handler: h.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(h.served)
		_ = h.hs.Serve(h.ln) // returns http.ErrServerClosed once close shuts it down
	}()
	addr := ln.Addr().String()
	h.ctl = newWireClient(addr)
	for range lists {
		h.clients = append(h.clients, newWireClient(addr))
	}
	_, err = h.ctl.OpenStore(ctx, server.OpenStoreRequest{
		Name: hotStore, Disks: []string{string(multimap.AtlasTenKIII)}, Mapping: "multimap", Dims: dims,
		ChunkCells: hotChunkCells, CacheBlocks: hotCacheBlock, MaxInflight: hotInflight,
	})
	if err != nil {
		h.close()
		return nil, err
	}
	for _, c := range append(append([]*server.Client(nil), h.clients...), h.ctl) {
		sid, err := c.Begin(ctx, hotStore, "")
		if err != nil {
			h.close()
			return nil, err
		}
		h.sessions = append(h.sessions, sid)
	}
	warm := len(h.sessions) - 1
	for i := range distinct {
		if s := h.do(h.ctl, h.sessions[warm], &distinct[i], nil); s.err != nil {
			h.close()
			return nil, fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return h, nil
}

func (h *hotWire) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx) // a timeout leaves only connections the server closes below
	<-h.served
	_ = h.srv.Close(ctx) // drains and releases every store; nothing to retry on error
	for _, c := range append(h.clients, h.ctl) {
		if c != nil {
			c.HTTPClient.CloseIdleConnections()
		}
	}
}

// do runs one op over the wire on session sid.
func (h *hotWire) do(c *server.Client, sid string, o *op, tr *tracer) sample {
	ctx := context.Background()
	req := h.opsDone.Add(1)
	sp := tr.begin("op", "hot-wire", 0, req)
	defer sp.end()
	start := time.Now()
	if o.kind == opBeam {
		call := tr.begin("server", "Client.Beam", sp.id, req)
		st, err := c.Beam(ctx, hotStore, sid, o.dim, o.fixed, 0)
		call.end()
		lat := time.Since(start)
		return sample{op: o, lat: lat, first: lat, st: st, err: err}
	}
	call := tr.begin("server", "Client.RangeQuery", sp.id, req)
	var first time.Duration
	trailer, err := c.RangeQuery(ctx, hotStore, sid, o.lo, o.hi, 0, func(server.ChunkWire) {
		if first == 0 {
			first = time.Since(start)
		}
	})
	call.end()
	return sample{op: o, lat: time.Since(start), first: first, st: trailer.Stats.Stats(), err: err}
}

func (h *hotWire) phase(d time.Duration, tr *tracer) (*tally, error) {
	b0 := h.ln.bytes.Load()
	// Only a traced run pairs ops with their in-process twins, so only
	// its untraced phase keeps every latency in order.
	keep := h.pairing && tr == nil
	t, per := closedLoop(d, h.lists, keep, func(*op) bool { return true }, func(c int, o *op) sample {
		return h.do(h.clients[c], h.sessions[c], o, tr)
	})
	if keep {
		h.untraced, h.untracedPer, h.untracedBytes = t, per, h.ln.bytes.Load()-b0
	}
	return t, nil
}

func (h *hotWire) engine() (engineTotals, error) {
	m, err := h.ctl.Metrics(context.Background(), hotStore)
	if err != nil {
		return engineTotals{}, err
	}
	return totalsOfWire(m), nil
}

func (h *hotWire) queueDepth() (int, error) {
	m, err := h.ctl.Metrics(context.Background(), hotStore)
	return m.QueueDepth, err
}

// check sums every wire session's lifetime Stats and compares them with
// the store's attributed totals.
func (h *hotWire) check() []string {
	ctx := context.Background()
	var sum multimap.Stats
	for _, sid := range h.sessions {
		st, err := h.ctl.SessionStats(ctx, hotStore, sid)
		if err != nil {
			return []string{fmt.Sprintf("session stats: %v", err)}
		}
		sum.Accumulate(st)
	}
	m, err := h.ctl.Metrics(ctx, hotStore)
	if err != nil {
		return []string{fmt.Sprintf("metrics: %v", err)}
	}
	if err := checkAttribution(sum, m.Totals.Attributed.Stats()); err != nil {
		return []string{err.Error()}
	}
	return nil
}

func (h *hotWire) lines() []string {
	out := []string{
		fmt.Sprintf("dataset: multimap grid %v on atlas10k3 behind the daemon on loopback; cache %d blocks, chunk_cells %d, max_inflight %d",
			h.dims, hotCacheBlock, hotChunkCells, hotInflight),
		fmt.Sprintf("hot region: first %d cells of each dimension; %d distinct ops, all run once in warm-up", h.dims[0]/8, len(h.distinct)),
	}
	if m, err := h.ctl.Metrics(context.Background(), hotStore); err == nil {
		out = append(out, fmt.Sprintf("cache hit rate (store lifetime, warm-up included): %.4f", m.CacheHitRate))
	}
	return out
}

// layers replays the distinct ops through the lower layers, then runs
// the untraced phase's op streams in process against an identically
// configured library store, pairing each wire op with the same op in
// process to isolate what the daemon adds.
func (h *hotWire) layers(m map[string]float64, tr *tracer) error {
	t := h.untraced
	if t == nil {
		return errors.New("hot-wire: no untraced phase to pair with")
	}
	m["disk.sim_ms_per_cell"] = ratio(t.simMs, float64(t.cells))
	m["server.bytes_per_op"] = ratio(float64(h.untracedBytes), float64(t.ops))
	first, _ := t.firsts.summary()
	whole, _ := t.ranges.summary()
	m["server.first_chunk_frac"] = ratio(first, whole)

	inproc, err := h.pairedInProcess()
	if err != nil {
		return err
	}
	var lat, diff []float64
	for c, ct := range h.untracedPer {
		for i, wire := range ct.order {
			if i < len(inproc[c]) {
				lat = append(lat, float64(inproc[c][i]))
				diff = append(diff, 1000*float64(wire-inproc[c][i]))
			}
		}
	}
	sort.Float64s(lat)
	m["engine.op_us"] = 1000 * quantile(lat, 0.5)
	m["engine.read_p99_ms"] = tailPercentile(lat, 99).Value
	m["server.overhead_us_per_op"] = median(diff)

	spec := replaySpec{kinds: []mapping.Kind{mapping.MultiMap}, dims: h.dims, chunkCells: hotChunkCells, shards: 1}
	for i := range h.distinct {
		lo, hi := h.distinct[i].box(h.dims)
		spec.boxes = append(spec.boxes, [2][]int{lo, hi})
	}
	return replayLayers(m, tr, spec)
}

// pairedInProcess opens a library store configured like the daemon's,
// warms it the same way, and replays each client's untraced op stream
// (the same ops, in order, as many as the wire client completed) with
// the same number of concurrent clients, returning every op's latency.
func (h *hotWire) pairedInProcess() ([]latencies, error) {
	ctx := context.Background()
	vol, err := multimap.OpenVolume(multimap.AtlasTenKIII)
	if err != nil {
		return nil, err
	}
	defer vol.Close()
	st, err := multimap.Open(vol, multimap.MultiMap, h.dims, multimap.WithChunkCells(hotChunkCells),
		multimap.WithCache(hotCacheBlock), multimap.WithMaxInflight(hotInflight))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	warm := st.Begin()
	for i := range h.distinct {
		if s := inProcessRead(ctx, warm, &h.distinct[i]); s.err != nil {
			return nil, s.err
		}
	}
	out := make([]latencies, len(h.untracedPer))
	errs := make([]error, len(h.untracedPer))
	var wg sync.WaitGroup
	for c, ct := range h.untracedPer {
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			q := st.Begin()
			for i := 0; i < n; i++ {
				s := inProcessRead(ctx, q, &h.lists[c][i%len(h.lists[c])])
				if s.err != nil {
					errs[c] = s.err
					return
				}
				out[c].add(s.lat)
			}
		}(c, len(ct.order))
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// inProcessRead runs a read op on a library session: ranges streamed,
// like the daemon streams them.
func inProcessRead(ctx context.Context, q *multimap.Session, o *op) sample {
	if o.kind == opRange {
		return timedRange(ctx, q, o)
	}
	start := time.Now()
	st, err := q.Beam(ctx, o.dim, o.fixed)
	lat := time.Since(start)
	return sample{op: o, lat: lat, first: lat, st: st, err: err}
}

func buildHotWire(cfg config) (system, float64, error) {
	dims := hotDims(cfg.small)
	if _, err := dataset.NewGrid(dims...); err != nil {
		return nil, 0, err
	}
	distinct := hotOps(dims)
	lists := hotLists(distinct, cfg.clients, cfg.seed)
	h, setupS, err := timeSetups(cfg.small, func() (*hotWire, error) { return openHotWire(dims, distinct, lists, cfg.trace) }, (*hotWire).close)
	if err != nil {
		return nil, 0, err
	}
	return h, setupS, nil
}
