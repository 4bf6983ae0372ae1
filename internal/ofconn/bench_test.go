package ofconn

import (
	"testing"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/switchsim"
)

// reportWrites reports writes/op: the Write calls made on both ends of the
// channel — controller requests and server replies — per benchmark op.
func reportWrites(b *testing.B, ctrl, srv *countingConn, cw0, sw0 int) {
	cw, _ := ctrl.snapshot()
	sw, _ := srv.snapshot()
	b.ReportMetric(float64((cw-cw0)+(sw-sw0))/float64(b.N), "writes/op")
}

// BenchmarkControllerFlowMod times one confirmed flow-mod (the op and its
// barrier) over a loopback connection to a served switch, alternating an
// add and a strict delete of one rule so the table stays at one entry.
func BenchmarkControllerFlowMod(b *testing.B) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	c, ctrl, srv := countedPair(b, sw)
	add := probeAdd(1)
	del := &openflow.FlowMod{
		Command:  openflow.FlowDeleteStrict,
		Match:    flowtable.ExactProbeMatch(1),
		Priority: 10,
		OutPort:  openflow.PortNone,
	}
	cw0, _ := ctrl.snapshot()
	sw0, _ := srv.snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fm := add
		if i%2 == 1 {
			fm = del
		}
		if err := c.FlowMod(fm); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportWrites(b, ctrl, srv, cw0, sw0)
}

// BenchmarkControllerProbe times one probe round trip (PACKET_OUT out,
// reflected PACKET_IN back) over a loopback connection; the probe's flow
// has no rule, so every frame is punted.
func BenchmarkControllerProbe(b *testing.B) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	c, ctrl, srv := countedPair(b, sw)
	raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 7})
	if err != nil {
		b.Fatal(err)
	}
	cw0, _ := ctrl.snapshot()
	sw0, _ := srv.snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.SendProbe(raw, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportWrites(b, ctrl, srv, cw0, sw0)
}
