// Command perfbench is the repository's benchmark. It runs one named
// workload against the public multimap API (and, for hot-wire, the
// network daemon), checks the outputs, and prints every metric by name
// and unit, ending with one JSON line:
//
//	go build -o perfbench . && ./perfbench --workload scan --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it reports the per-layer metrics instead: half the
// time runs untraced, half with a span around every call into a layer,
// the lower layers are replayed one at a time on a private copy of the
// layout, and a CPU profile and the span file are written to --out.
// See run.sh for the build-and-run wrapper.
//
// Seed 9973 is held out: tune and measure a change on other seeds, and
// use it only to confirm the claim once the change is written.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is reserved for confirming a performance claim (see the
// package comment).
const heldOutSeed = 9973

// system is one workload's built system under test.
type system interface {
	// phase runs the workload's closed loop for d; a non-nil tracer
	// records a span around every call.
	phase(d time.Duration, tr *tracer) (*tally, error)
	// engine snapshots the serving bookkeeping of the system's stores.
	engine() (engineTotals, error)
	// queueDepth reads the stores' summed admission backlog.
	queueDepth() (int, error)
	// layers records the workload-specific per-layer metrics of a
	// traced run, replaying the lower layers.
	layers(m map[string]float64, tr *tracer) error
	// check runs the end-of-run correctness checks.
	check() []string
	lines() []string
	close()
}

// workloads maps each workload name to its default client count and
// the function that sets it up.
var workloads = map[string]struct {
	clients int
	build   func(cfg config) (system, float64, error)
}{
	"scan":     {1, buildScan},
	"hot-wire": {2, buildHotWire},
	"churn":    {2, buildChurn},
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: scan, hot-wire or churn")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.IntVar(&cfg.clients, "clients", 0, "closed-loop clients (0 = workload default, capped at nproc)")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for the span file and CPU profile")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return cfg, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return cfg, errors.New("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	nproc := runtime.NumCPU()
	if cfg.clients > nproc {
		return cfg, fmt.Errorf("%d clients exceed nproc %d: closed-loop clients must not outnumber CPUs", cfg.clients, nproc)
	}
	if cfg.clients < 0 {
		return cfg, errors.New("--clients must be positive")
	}
	if cfg.clients == 0 {
		cfg.clients = min(w.clients, nproc)
	}
	if cfg.workload == "scan" && cfg.clients != 1 {
		return cfg, errors.New("scan is the single-client paper reproduction")
	}
	return cfg, nil
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(cfg config, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	if cfg.seed == heldOutSeed {
		fmt.Fprintln(out, "seed: held out for confirming claims; do not tune against it")
	}
	fmt.Fprintf(out, "env: GOMAXPROCS=%d nproc=%d go=%s commit=%s source=%s clients=%d closed loop\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit(), sourceDigest(), cfg.clients)

	sys, setupS, err := workloads[cfg.workload].build(cfg)
	if err != nil {
		return nil, err
	}
	defer sys.close()

	m := map[string]float64{}
	var problems []string
	var t *tally
	d := cfg.duration()
	if !cfg.trace {
		if t, err = sys.phase(d, nil); err != nil {
			return nil, err
		}
		m["setup_s"] = setupS
		for _, l := range t.endToEnd(m) {
			fmt.Fprintln(out, l)
		}
	} else {
		if t, err = tracedRun(cfg, sys, m, out); err != nil {
			return nil, err
		}
	}
	problems = append(problems, t.problems...)
	problems = append(problems, sys.check()...)
	m["max_rss_mb"] = maxRSSMB()

	for _, l := range sys.lines() {
		fmt.Fprintln(out, l)
	}
	for _, e := range t.errs {
		fmt.Fprintln(out, "failure:", e)
	}
	fmt.Fprintf(out, "ops attempted %d, failed %d (fail_frac %.6f)\n", t.ops, t.failed, ratio(float64(t.failed), float64(t.ops)))

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &result{Correct: len(problems) == 0, Attempted: t.ops, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, def := range defs {
		v := m[def.Name]
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
		fmt.Fprintf(out, "metric %-36s %14.6g %s\n", def.Name, v, def.Unit)
	}
	for _, p := range problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, string(line))
	return res, nil
}

// tracedRun measures half the time untraced and half traced, replays
// the lower layers, and records every per-layer metric, the span file
// and a CPU profile of the whole run.
func tracedRun(cfg config, sys system, m map[string]float64, out io.Writer) (*tally, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	t, err := tracedPhases(cfg, sys, m, base, out)
	// The profile is flushed by StopCPUProfile, so it must run before
	// the file is closed.
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if fi.Size() == 0 {
		t.problems = append(t.problems, "CPU profile is empty")
	}
	fmt.Fprintf(out, "cpu profile: %s (%d bytes)\n", base+".cpu.pprof", fi.Size())
	return t, nil
}

func tracedPhases(cfg config, sys system, m map[string]float64, base string, out io.Writer) (*tally, error) {
	half := cfg.duration() / 2
	h0 := readHost()
	t0, err := sys.phase(half, nil)
	if err != nil {
		return nil, err
	}
	h1 := readHost()
	hc := hostDelta(h0, h1, int(t0.ops))
	m["host.cpu_s_per_op"] = hc.cpuSPerOp
	m["host.allocs_per_op"] = hc.allocsPerOp
	m["host.gc_cpu_frac"] = hc.gcCPUFrac
	m["host.ops_per_s"], m["host.cells_per_s"] = t0.throughput()
	untracedMs, _ := t0.all.summary()
	m["engine.op_us"] = 1000 * untracedMs
	_, r99 := t0.reads.summary()
	m["engine.read_p99_ms"] = r99.Value
	if t0.writes.n > 0 {
		w50, w99 := t0.writes.summary()
		m["engine.write_p50_ms"] = w50
		m["engine.write_p99_ms"] = w99.Value
	}

	e0, err := sys.engine()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	depths, stop := sampleQueueDepth(sys)
	t1, err := sys.phase(half, tr)
	stop()
	if err != nil {
		return nil, err
	}
	sort.Float64s(*depths)
	m["engine.queue_depth_p50"] = quantile(*depths, 0.5)
	m["engine.queue_depth_p99"] = tailPercentile(*depths, 99).Value
	e1, err := sys.engine()
	if err != nil {
		return nil, err
	}
	engineMetrics(m, e0, e1, t1.ops)
	tracedMs, _ := t1.all.summary()
	m["trace.overhead_frac"] = ratio(tracedMs-untracedMs, untracedMs)
	fmt.Fprintf(out, "tracing overhead: median op %.4f ms traced vs %.4f ms untraced\n", tracedMs, untracedMs)

	if err := sys.layers(m, tr); err != nil {
		return nil, err
	}
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return nil, err
	}
	self := selfTimes(tr.spans)
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "spans: %s (%d spans)\n", base+".spans.jsonl", len(tr.spans))
	for _, k := range names {
		fmt.Fprintf(out, "self time %-10s %.6f s\n", k, self[k])
	}

	// Both phases count toward attempted ops and the checks.
	t0.ops += t1.ops
	t0.failed += t1.failed
	t0.errs = append(t0.errs, t1.errs...)
	t0.problems = append(t0.problems, t1.problems...)
	return t0, nil
}

// sampleQueueDepth polls the system's admission backlog every 2 ms
// until stop is called; stop returns once the poller has exited.
func sampleQueueDepth(sys system) (*[]float64, func()) {
	var depths []float64
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if q, err := sys.queueDepth(); err == nil {
					depths = append(depths, float64(q))
				}
			}
		}
	}()
	return &depths, func() {
		close(done)
		<-exited
	}
}

// commit is the VCS revision the binary was built from, when the build
// recorded one; outside a git checkout it is "unknown", and sourceDigest
// identifies the code instead.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// sourceDigest is a digest of every Go source and module file under
// the working directory (the repository root), skipping hidden
// directories such as the build directory, so a result names the code
// it measured even when no VCS revision was recorded.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
