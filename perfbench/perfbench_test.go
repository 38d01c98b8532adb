package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n          int
		pct, value float64
		beyond     int
	}{
		{1000, 99, 990, 10},  // exactly ten samples past p99
		{5000, 99, 4950, 50}, // plenty
		{999, 98.9, 989, 10}, // p99 would leave nine: step down
		{100, 90, 90, 10},
		{40, 75, 30, 10},
		{19, 50, 10, 9}, // too few for any tail: the median
		{1, 50, 1, 0},
	} {
		got := tailPercentile(seq(c.n), 99)
		if got.Pct != c.pct || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%g = %g with %d beyond", c.n, got, c.pct, c.value, c.beyond)
		}
		if got.Pct > 50 && got.Beyond < minBeyond {
			t.Errorf("n=%d: p%g reported with only %d samples beyond", c.n, got.Pct, got.Beyond)
		}
	}
	if got := tailPercentile(nil, 99); got.N != 0 || got.Value != 0 {
		t.Errorf("empty sample: got %+v", got)
	}
}

func TestHistPercentiles(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	p50, p99 := h.summary()
	near := func(got, want float64) bool {
		return got >= want*(1-1./(1<<histBits)) && got <= want*(1+1./(1<<histBits))
	}
	if !near(p50, 0.5) {
		t.Errorf("p50 = %g ms, want 0.5 within a bucket", p50)
	}
	if p99.Pct != 99 || p99.Beyond != 10 || p99.N != 1000 || !near(p99.Value, 0.99) {
		t.Errorf("p99 = %+v, want p99 = 0.99 ms with 10 beyond", p99)
	}
	var a, b hist
	a.add(3 * time.Millisecond)
	b.add(time.Millisecond)
	b.add(2 * time.Millisecond)
	a.merge(&b)
	if m, _ := a.summary(); a.n != 3 || !near(m, 2) {
		t.Errorf("merged median %g of %d samples, want 2 ms of 3", m, a.n)
	}
	for _, d := range []time.Duration{1, 255, 256, 257, 511, 512, 4097, time.Second} {
		if got := bucketMs(bucketOf(d)) * 1e6; !near(got, float64(d)) {
			t.Errorf("%v lands in a bucket centred on %g ns", d, got)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "server", Start: 10, End: 60},
		{ID: 3, Parent: 1, Layer: "server", Start: 40, End: 80}, // overlaps span 2
		{ID: 4, Parent: 2, Layer: "engine", Start: 20, End: 30},
	}
	got := selfTimes(spans)
	want := map[string]float64{"op": 30e-9, "server": 80e-9, "engine": 10e-9}
	for k, v := range want {
		if d := got[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self time %s = %g, want %g", k, got[k], v)
		}
	}
}

func TestEngineTotalsAddLeavesOperands(t *testing.T) {
	a := engineTotals{maxBatch: 1, classOps: map[string]int64{"bulk": 1}}
	b := engineTotals{maxBatch: 3, classOps: map[string]int64{"bulk": 2}}
	sum := a.add(b).add(b)
	if sum.classOps["bulk"] != 5 || sum.maxBatch != 3 {
		t.Errorf("sum %+v, want 5 bulk ops and max batch 3", sum)
	}
	if a.classOps["bulk"] != 1 || b.classOps["bulk"] != 2 {
		t.Errorf("operands changed: %v, %v", a.classOps, b.classOps)
	}
}

// benchmarkJSON is the repository's benchmark definition.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nbenchmark prints\n%v", e2e, endToEnd)
	}
	if fmt.Sprint(b.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nbenchmark prints\n%v", b.PerLayer, perLayer)
	}
}

// TestSmoke runs every workload on a tiny dataset, untraced and traced,
// and checks the printed result line against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	units := map[string]string{}
	var e2e, layer []string
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
		layer = append(layer, m.Name)
	}
	for name, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				cfg := config{workload: name, seed: 7, seconds: 0.3, trace: traced,
					clients: min(w.clients, runtime.NumCPU()), outDir: t.TempDir(), small: true}
				var out bytes.Buffer
				res, err := run(cfg, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d\n%s", res.Correct, res.Attempted, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var printed result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &printed); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				want := e2e
				if traced {
					want = layer
				}
				var got []string
				for k, v := range printed.Metrics {
					got = append(got, k)
					if v.Unit != units[k] {
						t.Errorf("%s printed in %q, BENCHMARK.json says %q", k, v.Unit, units[k])
					}
				}
				sort.Strings(got)
				want = append([]string(nil), want...)
				sort.Strings(want)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("printed metrics %v, want %v", got, want)
				}
				if !traced {
					for _, k := range want {
						if printed.Metrics[k].Value <= 0 {
							t.Errorf("end-to-end metric %s = %g, want > 0", k, printed.Metrics[k].Value)
						}
					}
				}
			})
		}
	}
}

func TestClientsAboveNprocRefused(t *testing.T) {
	n := runtime.NumCPU() + 1
	var errs bytes.Buffer
	if _, err := parseFlags([]string{"--workload", "churn", "--clients", fmt.Sprint(n)}, &errs); err == nil {
		t.Fatalf("%d clients on %d CPUs accepted", n, n-1)
	}
	cfg, err := parseFlags([]string{"--workload", "hot-wire", "--seed", "3", "--seconds", "2", "--trace", "1"}, &errs)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.seed != 3 || cfg.seconds != 2 || !cfg.trace || cfg.clients < 1 || cfg.clients > runtime.NumCPU() {
		t.Fatalf("parsed %+v", cfg)
	}
}
