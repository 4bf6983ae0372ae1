package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"time"
)

// median returns the middle of xs (the mean of the two middles for even
// lengths), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread summarises per-call values as min/q1/median/q3/max.
func spread(xs []float64) string {
	return fmt.Sprintf("min %.4g q1 %.4g median %.4g q3 %.4g max %.4g",
		quantile(xs, 0), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 1))
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tail returns the highest of the p90/p99/p99.9/p99.99 percentiles that
// still has at least ten samples beyond it, with that percentile; it falls
// back to the median when there are fewer than 100 samples.
func tail(xs []float64) (pct, value float64) {
	pct = 50
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(len(xs))*(1-p/100) >= 10 {
			pct = p
		}
	}
	return pct, quantile(xs, pct/100)
}

// interval is a [start, end) span of wall time.
type interval struct{ start, end time.Duration }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func covered(lo, hi time.Duration, ivs []interval) time.Duration {
	s := slices.Clone(ivs)
	slices.SortFunc(s, func(a, b interval) int { return int(a.start - b.start) })
	var total time.Duration
	cur := lo
	for _, iv := range s {
		start, end := max(iv.start, cur), min(iv.end, hi)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// runtimeSample is a read of the Go runtime counters the runtime.* metrics
// are differences of.
type runtimeSample struct {
	at         time.Time
	gcCPU      float64
	totalCPU   float64
	allocBytes uint64
	gcCycles   uint64
	schedLat   []uint64
	buckets    []float64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s := runtimeSample{at: time.Now()}
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ms[2].Value.Uint64()
	}
	if ms[3].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = ms[3].Value.Uint64()
	}
	if ms[4].Value.Kind() == metrics.KindFloat64Histogram {
		h := ms[4].Value.Float64Histogram()
		s.schedLat, s.buckets = slices.Clone(h.Counts), h.Buckets
	}
	return s
}

// runtimeAcc sums runtime counter differences over the measured calls only,
// leaving out the benchmark's own settling GCs between them.
type runtimeAcc struct {
	wall            time.Duration
	gcCPU, totalCPU float64
	allocBytes      uint64
	gcCycles        uint64
	schedLat        []uint64
	buckets         []float64
}

func (acc *runtimeAcc) add(a, b runtimeSample) {
	acc.wall += b.at.Sub(a.at)
	acc.gcCPU += b.gcCPU - a.gcCPU
	acc.totalCPU += b.totalCPU - a.totalCPU
	acc.allocBytes += b.allocBytes - a.allocBytes
	acc.gcCycles += b.gcCycles - a.gcCycles
	if len(a.schedLat) != len(b.schedLat) {
		return
	}
	if acc.schedLat == nil {
		acc.schedLat, acc.buckets = make([]uint64, len(b.schedLat)), b.buckets
	}
	for i := range b.schedLat {
		acc.schedLat[i] += b.schedLat[i] - a.schedLat[i]
	}
}

// layers fills the runtime.* metrics; ops is the workload's unit count over
// the accumulated calls.
func (acc *runtimeAcc) layers(ops float64, into map[string]float64) {
	if acc.totalCPU > 0 {
		into["runtime.gc_cpu_share"] = acc.gcCPU / acc.totalCPU
	}
	if ops > 0 {
		into["runtime.alloc_bytes_per_op"] = float64(acc.allocBytes) / ops
	}
	if acc.wall > 0 {
		into["runtime.gc_cycles"] = float64(acc.gcCycles) / acc.wall.Seconds()
	}
	var total, cum uint64
	for _, c := range acc.schedLat {
		total += c
	}
	for i, c := range acc.schedLat {
		cum += c
		if total > 0 && float64(cum) >= 0.99*float64(total) {
			// Upper edge of the bucket holding the p99 wait; the last
			// bucket is open-ended, so fall back to its lower edge.
			edge := acc.buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = acc.buckets[i]
			}
			into["runtime.sched_wait_p99_us"] = edge * 1e6
			return
		}
	}
}
