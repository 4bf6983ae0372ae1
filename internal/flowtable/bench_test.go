package flowtable

import (
	"fmt"
	"runtime"
	"testing"

	"tango/internal/packet"
)

// churnRules returns n exact probe rules at one priority — the shape of a
// probing fill and of the scale harness' resident flows.
func churnRules(n int) []*Rule {
	rules := make([]*Rule, n)
	for i := range rules {
		rules[i] = &Rule{Match: ExactProbeMatch(uint32(i)), Priority: 100, Actions: Output(1)}
	}
	return rules
}

// tableBytesPerRule measures the live heap a Table of the given rules costs
// beyond the rules themselves: the ordered slice plus the lookup index.
func tableBytesPerRule(rules []*Rule) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t := &Table{}
	for _, r := range rules {
		_, _ = t.Insert(r, t0)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(t)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(len(rules))
}

// BenchmarkTableChurn is the flowtable layer's per-rule cost at a cache-
// resident (4K) and a cache-busting (128K) table: one insert, find, remove
// or frame lookup per op. Removes run in insertion order, the eviction
// pattern of a single-priority fill. The insert rows also report the
// table's own live bytes per resident rule (B/rule). Find and lookup are
// read-only and must not allocate.
func BenchmarkTableChurn(b *testing.B) {
	for _, n := range []int{4 << 10, 128 << 10} {
		rules := churnRules(n)
		frames := make([]*packet.Frame, 1024)
		for i := range frames {
			raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: uint32(i * n / len(frames))})
			if err != nil {
				b.Fatal(err)
			}
			if frames[i], err = packet.Decode(raw); err != nil {
				b.Fatal(err)
			}
		}
		full := func() *Table {
			t := &Table{}
			for _, r := range rules {
				_, _ = t.Insert(r, t0)
			}
			return t
		}

		b.Run(fmt.Sprintf("insert/rules=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			t := &Table{}
			for i := 0; i < b.N; i++ {
				if i%n == 0 && i > 0 {
					b.StopTimer()
					t = &Table{}
					b.StartTimer()
				}
				if _, err := t.Insert(rules[i%n], t0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(tableBytesPerRule(rules), "B/rule")
		})
		b.Run(fmt.Sprintf("find/rules=%d", n), func(b *testing.B) {
			t := full()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := rules[i%n]
				if t.Find(&r.Match, r.Priority) != r {
					b.Fatal("resident rule not found")
				}
			}
		})
		b.Run(fmt.Sprintf("lookup/rules=%d", n), func(b *testing.B) {
			t := full()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if t.Lookup(frames[i%len(frames)], 1) == nil {
					b.Fatal("probe frame missed its rule")
				}
			}
		})
		b.Run(fmt.Sprintf("remove/rules=%d", n), func(b *testing.B) {
			t := full()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%n == 0 && i > 0 {
					b.StopTimer()
					t = full()
					b.StartTimer()
				}
				if !t.Remove(rules[i%n]) {
					b.Fatal("resident rule not removed")
				}
			}
		})
	}
}
