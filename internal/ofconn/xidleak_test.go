package ofconn

import (
	"errors"
	"net"
	"sync"
	"testing"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/switchsim"
)

// failingWriteConn wraps a live connection and starts failing writes after
// `allow` more succeed, while reads keep working — so the controller's read
// loop stays healthy and any pending-map cleanup observed is the work of
// the send error paths, not of connection teardown.
type failingWriteConn struct {
	net.Conn
	mu    sync.Mutex
	armed bool
	allow int
}

func (f *failingWriteConn) arm(allow int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed = true
	f.allow = allow
}

func (f *failingWriteConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	fail := f.armed && f.allow <= 0
	if f.armed && f.allow > 0 {
		f.allow--
	}
	f.mu.Unlock()
	if fail {
		return 0, errors.New("injected write failure")
	}
	return f.Conn.Write(p)
}

func (c *Controller) pendingLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

func dialFlaky(t *testing.T) (*Controller, *failingWriteConn) {
	t.Helper()
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := &failingWriteConn{Conn: raw}
	c, err := NewController(fc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, fc
}

func probeAdd(id uint32) *openflow.FlowMod {
	return &openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    flowtable.ExactProbeMatch(id),
		Priority: 10,
		Actions:  flowtable.Output(1),
	}
}

// TestFlowModSendFailureReleasesXIDs pins the regression: a failed send must
// unregister both the flow-mod and barrier XIDs. A leaked entry would sit in
// pending forever and misroute a late reply that reuses the XID. The
// flow-mod and its barrier share one write, so that write is the only
// failure point.
func TestFlowModSendFailureReleasesXIDs(t *testing.T) {
	c, fc := dialFlaky(t)

	fc.arm(0)
	if err := c.FlowMod(probeAdd(1)); err == nil {
		t.Fatal("FlowMod with failing send: want error")
	}
	if n := c.pendingLen(); n != 0 {
		t.Fatalf("flow-mod send failure leaked %d pending XIDs", n)
	}

	// One write is all a confirmed flow-mod needs.
	fc.arm(1)
	if err := c.FlowMod(probeAdd(2)); err != nil {
		t.Fatalf("FlowMod with one write allowed: %v", err)
	}
	if n := c.pendingLen(); n != 0 {
		t.Fatalf("confirmed flow-mod left %d pending XIDs", n)
	}
}

// TestFlowModsSendFailureReleasesXIDs covers the batch path: when the
// batch's single write fails, every XID registered for it (each flow-mod's
// and the barrier's) must be released.
func TestFlowModsSendFailureReleasesXIDs(t *testing.T) {
	c, fc := dialFlaky(t)
	batch := []*openflow.FlowMod{probeAdd(1), probeAdd(2), probeAdd(3)}

	fc.arm(0)
	if err := c.FlowMods(batch); err == nil {
		t.Fatal("FlowMods with failing send: want error")
	}
	if n := c.pendingLen(); n != 0 {
		t.Fatalf("batch send failure leaked %d pending XIDs", n)
	}

	// The whole batch, barrier included, is one write.
	fc.arm(1)
	if err := c.FlowMods(batch); err != nil {
		t.Fatalf("FlowMods with one write allowed: %v", err)
	}
	if n := c.pendingLen(); n != 0 {
		t.Fatalf("confirmed batch left %d pending XIDs", n)
	}
}

// TestRequestSendFailureReleasesXIDs covers the single-reply requests: a
// probe, an echo and both statistics requests must release their XID when
// the write fails.
func TestRequestSendFailureReleasesXIDs(t *testing.T) {
	c, fc := dialFlaky(t)
	reqs := []struct {
		name string
		do   func() error
	}{
		{"SendProbe", func() error { _, _, err := c.SendProbe([]byte("probe"), 1); return err }},
		{"Echo", func() error { _, err := c.Echo(); return err }},
		{"TableStats", func() error { _, err := c.TableStats(); return err }},
		{"FlowStats", func() error { _, err := c.FlowStats(); return err }},
	}
	for _, r := range reqs {
		fc.arm(0)
		if err := r.do(); err == nil {
			t.Fatalf("%s with failing send: want error", r.name)
		}
		if n := c.pendingLen(); n != 0 {
			t.Fatalf("%s send failure leaked %d pending XIDs", r.name, n)
		}
	}
}
