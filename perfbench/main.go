// Command perfbench is the repository benchmark. One invocation runs one
// named workload with one seed for a fixed wall time, checks that every
// output is correct, and prints a single JSON result line last:
//
//	perfbench -workload sched-update -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation between the benchmark and the program. With -trace 1 the
// run first repeats the untraced loop as a reference, then replays the
// same public calls on timed seams (device, listener, connection,
// scheduler and executor wrappers defined in this package), prints the
// per-layer metrics, the tracing overhead and the no-observer-effect
// verdict, and writes its spans under .bench_build/traces. RATIONALE.md explains the
// workloads, the layers each stresses or bypasses, and the per-layer to
// end-to-end map. run.py builds this package and forwards its arguments.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// par is the benchmark's concurrency: worker, shard and goroutine counts
// never exceed it. Deterministic outputs are invariant under it.
var par = min(2, runtime.NumCPU())

// config is one invocation's arguments.
type config struct {
	seed     int64
	seconds  float64
	traceOut string
}

// deadline returns when a loop started now should stop issuing calls.
func (c config) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(share * c.seconds * float64(time.Second)))
}

// outcome is what a workload reports: its end-to-end samples, the
// operation counts behind fail_ratio, the per-layer metrics of a traced run,
// and labelled lines for the human-readable report.
type outcome struct {
	setup      []float64 // seconds, one per set-up
	rss        []float64 // peak RSS in MiB, one per measured call
	rt         runtimeAcc
	tracing    bool    // set once a traced run starts its traced stretch
	throughput float64 // units per wall second
	unit       string  // what throughput counts, e.g. "infers_per_s"
	attempted  int64
	failed     int64
	problems   []string // failed correctness checks
	digest     string
	lines      []string
	layers     map[string]float64
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) line(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

type workload struct {
	run   func(config) (*outcome, error)
	trace func(config) (*outcome, error)
}

// workloads are the runnable workloads. BENCHMARK.json lists all but
// fleet-sim, which fails its accuracy check on some seeds because of a
// size-inference defect (RATIONALE.md, "Known failure"); it stays runnable
// to reproduce that failure and goes back into BENCHMARK.json once the
// defect is fixed.
var workloads = map[string]workload{
	"fleet-sim":    {runFleetSim, traceFleetSim},
	"fleet-tcp":    {runFleetTCP, traceFleetTCP},
	"sched-update": {runSched, traceSched},
	"b4-scale":     {runScale, traceScale},
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fleet-tcp, sched-update, b4-scale or fleet-sim")
	seed := flag.Int64("seed", 1, "input seed (1 is the default, 7 is held out for claims)")
	seconds := flag.Float64("seconds", 10, "measured wall time")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds,
		traceOut: filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", *name, *seed))}
	fmt.Printf("workload %s seed %d seconds %g trace %d workers %d\n", *name, *seed, *seconds, *trace, par)

	run := w.run
	if *trace == 1 {
		run = w.trace
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if len(out.rss) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no peak RSS reading")
		os.Exit(1)
	}

	for _, l := range out.lines {
		fmt.Println(l)
	}
	fmt.Printf("fail_ratio %d/%d = %.6f\n", out.failed, out.attempted, float64(out.failed)/float64(max(out.attempted, 1)))
	fmt.Printf("digest %s\n", out.digest)
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}

	res := result{
		Correct:   len(out.problems) == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if *trace == 0 {
		res.Metrics["setup_s"] = metric{median(out.setup), "s"}
		res.Metrics["peak_rss_mb"] = metric{median(out.rss), "MB"}
		res.Metrics["throughput_per_s"] = metric{out.throughput, "1/s"}
	} else {
		for k, unit := range layerUnits {
			// A layer missing from out.layers reads 0: the workload
			// bypasses it, or the benchmark has no seam into it there.
			res.Metrics[k] = metric{out.layers[k], unit}
		}
		for _, k := range sortedKeys(out.layers) {
			if _, ok := layerUnits[k]; !ok {
				fmt.Printf("layer %-33s %.6g %s\n", k, out.layers[k], sizeLayerUnits[k])
			}
		}
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("metric %-32s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// layerUnits names every per-layer metric of a traced run's result line,
// with its unit: the per_layer list of BENCHMARK.json. RATIONALE.md says
// which end-to-end metric each should move.
var layerUnits = map[string]string{
	"switchsim.flowmod_ns":       "ns",
	"switchsim.flowmod_calls":    "count",
	"switchsim.frame_ns":         "ns",
	"switchsim.frame_calls":      "count",
	"switchsim.busy_share":       "ratio",
	"switchsim.table_full_ratio": "ratio",

	"infer.cost_ms_p50":       "ms",
	"probe.ops_per_inference": "count",

	"ofconn.flowmod_us_p50":      "us",
	"ofconn.probe_us_p50":        "us",
	"ofconn.probe_us_tail":       "us",
	"ofconn.ctrl_writes_per_msg": "ratio",
	"ofconn.srv_writes_per_msg":  "ratio",
	"ofconn.reads_per_msg":       "ratio",
	"ofconn.bytes_per_flowmod":   "B",
	"ofconn.io_share":            "ratio",

	"sched.order_ns_per_req":  "ns",
	"sched.execute_ns_per_op": "ns",
	"sched.run_self_share":    "ratio",
	"sched.rounds":            "count",
	"sched.batch_ops_mean":    "count",
	"sched.makespan_s":        "s",

	"scale.setup_ns_per_rule":    "ns",
	"scale.epoch_ns_per_event":   "ns",
	"scale.alloc_bytes_per_rule": "B",
	"scale.slow_path_share":      "ratio",
	"scale.max_shard_lag_ms":     "ms",
	"scale.bytes_per_rule":       "B",

	"runtime.gc_cpu_share":       "ratio",
	"runtime.alloc_bytes_per_op": "B",
	"runtime.gc_cycles":          "1/s",
	"runtime.sched_wait_p99_us":  "us",

	"trace.throughput_per_s": "1/s",
	"trace.overhead_share":   "ratio",
	"trace.observer_effect":  "count",
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// digestOf hashes the JSON encoding of a run's deterministic outputs, so
// two runs with one seed can be compared by a single line.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unavailable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:12])
}

// measured runs one measured call. Before it, a GC collects the previous
// call's garbage and the kernel's peak-RSS count restarts, so every call
// starts from the same heap state and the peak read after it is the call's
// own (where the count cannot be reset, the read covers the process so
// far). Runtime counters are summed over the call alone, and only while the
// run is untraced.
func (o *outcome) measured(call func() error) error {
	runtime.GC()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	a := readRuntime()
	err := call()
	if !o.tracing {
		o.rt.add(a, readRuntime())
	}
	if mb, err := peakRSSMB(); err == nil {
		o.rss = append(o.rss, mb)
	}
	return err
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
