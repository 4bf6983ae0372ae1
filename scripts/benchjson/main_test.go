package main

import (
	"reflect"
	"strings"
	"testing"
)

// twoPackages is the concatenated output of one `go test -bench` run over
// two packages that both define BenchmarkLookup.
const twoPackages = `goos: linux
goarch: amd64
pkg: tango/internal/switchsim
cpu: Test CPU
BenchmarkLookup-8   	     100	      2000 ns/op	       0 B/op
BenchmarkLookup-8   	     100	      4000 ns/op	       0 B/op
BenchmarkDemote-8   	      10	     90000 ns/op	 12.00 widgets
PASS
ok  	tango/internal/switchsim	1.000s
goos: linux
goarch: amd64
pkg: tango/internal/simclock
cpu: Test CPU
BenchmarkLookup-8   	     100	        30 ns/op
PASS
ok  	tango/internal/simclock	1.000s
`

func TestParseKeepsEachBenchmarksPackage(t *testing.T) {
	snap, err := parse(strings.NewReader(twoPackages))
	if err != nil {
		t.Fatal(err)
	}
	want := []Benchmark{
		{Pkg: "tango/internal/switchsim", Name: "Lookup", Count: 2, NsPerOp: 3000, Metrics: map[string]float64{"B/op": 0}},
		{Pkg: "tango/internal/switchsim", Name: "Demote", Count: 1, NsPerOp: 90000, Metrics: map[string]float64{"widgets": 12}},
		{Pkg: "tango/internal/simclock", Name: "Lookup", Count: 1, NsPerOp: 30},
	}
	if !reflect.DeepEqual(snap.Benchmarks, want) {
		t.Fatalf("benchmarks = %+v\nwant %+v", snap.Benchmarks, want)
	}
	if snap.Goos != "linux" || snap.Goarch != "amd64" || snap.CPU != "Test CPU" {
		t.Fatalf("header = %q/%q/%q", snap.Goos, snap.Goarch, snap.CPU)
	}
}

func TestParseRejectsEmptyStream(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("parse of a stream without benchmark lines succeeded")
	}
}
