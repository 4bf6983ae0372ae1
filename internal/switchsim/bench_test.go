package switchsim

// Micro-benchmarks of the emulator itself: the wall-clock cost of the
// framework (not the simulated latencies, which accrue on virtual clocks).
// These bound how fast experiments and inference sweeps can run.

import (
	"testing"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
)

func benchFlowMod(b *testing.B, prof Profile) {
	b.Helper()
	s := New(prof)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fm := &openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    flowtable.ExactProbeMatch(uint32(i)),
			Priority: 100,
			Actions:  flowtable.Output(1),
		}
		if err := s.FlowMod(fm); err != nil {
			// Table full: recycle by deleting everything and continuing.
			b.StopTimer()
			s.FlowMod(&openflow.FlowMod{Command: openflow.FlowDelete})
			b.StartTimer()
		}
	}
}

func BenchmarkFlowModAddOVS(b *testing.B)     { benchFlowMod(b, OVS()) }
func BenchmarkFlowModAddSwitch1(b *testing.B) { benchFlowMod(b, Switch1()) }
func BenchmarkFlowModAddSwitch2(b *testing.B) { benchFlowMod(b, Switch2()) }

func BenchmarkPipelineFastPath(b *testing.B) {
	s := New(Switch2())
	raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.FlowMod(&openflow.FlowMod{
		Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(1),
		Priority: 100, Actions: flowtable.Output(1),
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SendPacket(raw, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineFullTable(b *testing.B) {
	// Fast-path lookups against a full 2560-entry TCAM: the exact-IP index
	// keeps this O(1).
	s := New(Switch2())
	for id := uint32(0); id < 2560; id++ {
		if err := s.FlowMod(&openflow.FlowMod{
			Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(id),
			Priority: 100, Actions: flowtable.Output(1),
		}); err != nil {
			b.Fatal(err)
		}
	}
	raw, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 2000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SendPacket(raw, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// classifyExactSwitch builds a full 2560-entry TCAM-only switch and a
// pre-decoded probe frame that hits one of its residents — the isolated
// exact-match lookup hot path (open-addressing probe + arena record read).
func classifyExactSwitch(tb testing.TB) (*Switch, *packet.Frame, int) {
	tb.Helper()
	s := New(Switch2())
	for id := uint32(0); id < 2560; id++ {
		if err := s.FlowMod(&openflow.FlowMod{
			Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(id),
			Priority: 100, Actions: flowtable.Output(1),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 1234})
	if err != nil {
		tb.Fatal(err)
	}
	f := new(packet.Frame)
	if err := packet.DecodeInto(f, raw); err != nil {
		tb.Fatal(err)
	}
	return s, f, len(raw)
}

// BenchmarkClassifyExact isolates the probe-hit lookup path: frame key →
// open-addressing index → arena entry → TCAM-hit accounting. This is
// the per-probe inner loop of every inference sweep.
func BenchmarkClassifyExact(b *testing.B) {
	s, f, size := classifyExactSwitch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SendFrameN(f, 1, size, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClassifyExactAllocFree gates the lookup path at zero allocations per
// probe, the same way the telemetry hot path is gated: a regression that
// boxes, grows, or rehashes on a plain probe hit fails the suite, not just
// the benchmark trendline.
func TestClassifyExactAllocFree(t *testing.T) {
	s, f, size := classifyExactSwitch(t)
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := s.SendFrameN(f, 1, size, 1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("classifyExact probe hit allocates %v times per packet, want 0", avg)
	}
}

// BenchmarkDemoteChurn drives an LRU demote storm: with 192 flows rotating
// through a 64-slot TCAM, every packet touches the globally least-recent
// flow, which the policy then promotes — demoting the TCAM's LRU resident.
// Each iteration is a full promote+demote pair: four heap membership moves
// plus two table moves, the churn pattern whose GC write barriers dominated
// the old pointer-heap profiles.
func BenchmarkDemoteChurn(b *testing.B) {
	p := TestSwitch(64, PolicyLRU)
	p.SoftwareCapacity = 256
	s := New(p)
	const flows = 192
	type churnFrame struct {
		f    packet.Frame
		size int
	}
	frames := make([]churnFrame, flows)
	for id := uint32(0); id < flows; id++ {
		if err := s.FlowMod(&openflow.FlowMod{
			Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(id),
			Priority: 100, Actions: flowtable.Output(1),
		}); err != nil {
			b.Fatal(err)
		}
		raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: id})
		if err != nil {
			b.Fatal(err)
		}
		if err := packet.DecodeInto(&frames[id].f, raw); err != nil {
			b.Fatal(err)
		}
		frames[id].size = len(raw)
	}
	// One warm rotation brings every slice to steady-state capacity.
	for i := range frames {
		if _, err := s.SendFrameN(&frames[i].f, 1, frames[i].size, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf := &frames[i%flows]
		if _, err := s.SendFrameN(&cf.f, 1, cf.size, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroflowKernelHit(b *testing.B) {
	s := New(OVS())
	if err := s.FlowMod(&openflow.FlowMod{
		Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(1),
		Priority: 100, Actions: flowtable.Output(1),
	}); err != nil {
		b.Fatal(err)
	}
	raw, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	s.SendPacket(raw, 1) // warm the kernel entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SendPacket(raw, 1); err != nil {
			b.Fatal(err)
		}
	}
}
