// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON snapshot: ns/op plus every custom metric, averaged
// across -count repetitions. scripts/bench.sh pipes the headline benchmarks
// through it to produce the per-PR BENCH_<n>.json perf trajectory.
//
//	go test -run '^$' -bench 'Table1|SizeInference' -count 3 . | go run ./scripts/benchjson
//
// With -baseline FILE, the benchmarks of a previous snapshot are embedded
// under "baseline", so one file carries a PR's before/after comparison.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's averaged measurements.
type Benchmark struct {
	Pkg     string             `json:"pkg,omitempty"`
	Name    string             `json:"name"`
	Count   int                `json:"count"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the file layout of BENCH_<n>.json.
type Snapshot struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Baseline   []Benchmark `json:"baseline,omitempty"`
}

// benchLine matches e.g. "BenchmarkTable1-8  3  44002665 ns/op  2.000 worst-err-%".
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+(\d+)\s+([\d.eE+]+) ns/op(.*)$`)

// parse reads a `go test -bench` stream, possibly the concatenated output
// of several packages, and averages each benchmark's repetitions. A
// benchmark belongs to the package named by the last "pkg:" header before
// it, so equal names in different packages stay apart.
func parse(r io.Reader) (Snapshot, error) {
	type key struct{ pkg, name string }
	var (
		snap  Snapshot
		pkg   string
		order []key
		sums  = map[key]*Benchmark{}
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			snap.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			snap.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		k := key{pkg, m[1]}
		b := sums[k]
		if b == nil {
			b = &Benchmark{Pkg: pkg, Name: m[1], Metrics: map[string]float64{}}
			sums[k] = b
			order = append(order, k)
		}
		b.Count++
		b.NsPerOp += ns
		// The tail holds "value unit" metric pairs, tab separated.
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				b.Metrics[fields[i+1]] += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Snapshot{}, err
	}
	if len(order) == 0 {
		return Snapshot{}, errors.New("no benchmark lines on stdin")
	}
	for _, k := range order {
		b := sums[k]
		b.NsPerOp /= float64(b.Count)
		for name := range b.Metrics {
			b.Metrics[name] /= float64(b.Count)
		}
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
		snap.Benchmarks = append(snap.Benchmarks, *b)
	}
	return snap, nil
}

func main() {
	baselinePath := flag.String("baseline", "", "previous snapshot to embed under \"baseline\"")
	flag.Parse()

	snap, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: -baseline: %v\n", err)
			os.Exit(1)
		}
		var prev Snapshot
		if err := json.Unmarshal(data, &prev); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: -baseline %s: %v\n", *baselinePath, err)
			os.Exit(1)
		}
		snap.Baseline = prev.Benchmarks
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
