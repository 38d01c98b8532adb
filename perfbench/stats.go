package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// tail percentile: a p99 read off fewer than ten samples past it is
// noise, so the benchmark reports the highest percentile the sample
// does support instead.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), q)]
}

// rankIndex is the 0-based nearest-rank index of the q-quantile of n
// samples.
func rankIndex(n int, q float64) int {
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// median of an unsorted slice (the slice is sorted in place).
func median(v []float64) float64 {
	sort.Float64s(v)
	return quantile(v, 0.5)
}

// tail is a percentile that the sample supports.
type tail struct {
	Pct    float64 // percentile actually reported, e.g. 99 or 98.7
	Value  float64
	N      int // sample count
	Beyond int // samples strictly past the reported rank
}

func (t tail) String() string {
	return fmt.Sprintf("p%g of %d samples, %d beyond", t.Pct, t.N, t.Beyond)
}

// tailRank picks the percentile to report of n samples: want (e.g. 99)
// when at least minBeyond samples lie beyond its nearest rank;
// otherwise the highest percentile, in tenths of a percent, that has
// them, never below the median. It returns the percentile and the
// 0-based rank of its sample. Tenths and integer ranks keep the steps
// exact.
func tailRank(n int, want float64) (pct float64, k int) {
	p := int(math.Round(want * 10))
	k = (p*n+999)/1000 - 1
	for p > 500 && n-1-k < minBeyond {
		p--
		k = (p*n+999)/1000 - 1
	}
	return float64(p) / 10, k
}

// tailPercentile applies tailRank to a sorted sample. With fewer than
// 2*minBeyond samples it reports the median.
func tailPercentile(sorted []float64, want float64) tail {
	n := len(sorted)
	if n == 0 {
		return tail{}
	}
	pct, k := tailRank(n, want)
	return tail{Pct: pct, Value: sorted[k], N: n, Beyond: n - 1 - k}
}

// histBits sets the resolution of hist: each power of two of
// nanoseconds is split into 2^histBits buckets, so a bucket spans less
// than 0.4% of its values.
const histBits = 8

// hist is a log-linear histogram of host latencies. Its size depends on
// the range of the latencies, not on how many there are, so the
// benchmark's own memory does not grow with the throughput it measures.
// A percentile reads the midpoint of the bucket holding the ranked
// sample.
type hist struct {
	n      int
	counts []uint32
}

func bucketOf(d time.Duration) int {
	v := uint64(max(d, 1))
	e := bits.Len64(v) - 1
	if e < histBits {
		return int(v) // small values are exact
	}
	shift := e - histBits
	return (shift+1)<<histBits | int(v>>shift)&(1<<histBits-1)
}

// bucketMs is the midpoint of bucket i in milliseconds.
func bucketMs(i int) float64 {
	if i < 1<<histBits {
		return float64(i) / 1e6
	}
	shift := i>>histBits - 1
	lower := uint64(1<<histBits|i&(1<<histBits-1)) << shift
	return (float64(lower) + float64(uint64(1)<<shift)/2) / 1e6
}

func (h *hist) add(d time.Duration) {
	i := bucketOf(d)
	if i >= len(h.counts) {
		h.counts = append(h.counts, make([]uint32, i+1-len(h.counts))...)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if len(o.counts) > len(h.counts) {
		h.counts = append(h.counts, make([]uint32, len(o.counts)-len(h.counts))...)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// at returns the k-th smallest sample (0-based), in milliseconds.
func (h *hist) at(k int) float64 {
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen > k {
			return bucketMs(i)
		}
	}
	return 0
}

// summary returns the samples' median and tail.
func (h *hist) summary() (p50 float64, p99 tail) {
	if h.n == 0 {
		return 0, tail{}
	}
	pct, k := tailRank(h.n, 99)
	return h.at(rankIndex(h.n, 0.5)), tail{Pct: pct, Value: h.at(k), N: h.n, Beyond: h.n - 1 - k}
}

// latencies keeps per-operation host latencies in milliseconds, in
// order and four bytes each, where ops are paired one to one.
type latencies []float32

func (l *latencies) add(d time.Duration) { *l = append(*l, float32(d.Seconds()*1000)) }

// ratio returns a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
