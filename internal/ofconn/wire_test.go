package ofconn

import (
	"bytes"
	"io"
	"log"
	"net"
	"sync"
	"testing"
	"time"

	"tango/internal/openflow"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// countingConn counts the Write calls made on a connection and, when
// record is set, keeps a copy of every byte written. A write is counted
// before it reaches the wire, so once the peer has seen its bytes the count
// includes it.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	record bool
	wrote  []byte
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	if c.record {
		c.wrote = append(c.wrote, p...)
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// snapshot returns the write count and recorded bytes so far and clears
// the recording.
func (c *countingConn) snapshot() (int, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wrote := c.wrote
	c.wrote = nil
	return c.writes, wrote
}

// countingListener wraps every accepted connection in a countingConn and
// hands it out on conns.
type countingListener struct {
	net.Listener
	conns chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	l.conns <- cc
	return cc, nil
}

// countedPair serves sw over loopback TCP with both ends of the one
// connection wrapped in a countingConn, and returns the handshaken
// controller with the controller-side and server-side counters.
func countedPair(tb testing.TB, sw *switchsim.Switch) (*Controller, *countingConn, *countingConn) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	cl := &countingListener{Listener: ln, conns: make(chan *countingConn, 1)}
	srv := NewServer(cl, sw, ServeOptions{Logger: log.New(io.Discard, "", 0), Metrics: telemetry.NewRegistry()})
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve()
	}()
	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	cc := &countingConn{Conn: raw}
	c, err := NewControllerOptions(cc, ControllerOptions{Metrics: telemetry.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		c.Close()
		_ = srv.Shutdown(time.Second)
		<-served
	})
	return c, cc, <-cl.conns
}

// TestConfirmedFlowModOneWrite pins the wire shape of the synchronous path:
// a confirmed flow-mod is one controller write (flow-mod and barrier
// together) and one server write (the barrier reply); a batch of five is
// still one controller write; and the bytes are exactly the per-message
// encodings laid end to end.
func TestConfirmedFlowModOneWrite(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	c, ctrl, srv := countedPair(t, sw)
	ctrl.mu.Lock()
	ctrl.record = true
	ctrl.mu.Unlock()

	cw0, _ := ctrl.snapshot()
	sw0, _ := srv.snapshot()
	fm := probeAdd(1)
	if err := c.FlowMod(fm); err != nil {
		t.Fatal(err)
	}
	cw1, got := ctrl.snapshot()
	sw1, _ := srv.snapshot()
	if n := cw1 - cw0; n != 1 {
		t.Fatalf("FlowMod: %d controller writes, want 1", n)
	}
	if n := sw1 - sw0; n != 1 {
		t.Fatalf("FlowMod: %d server writes, want 1", n)
	}
	want := fm.Marshal(nil)
	want = (&openflow.BarrierRequest{Header: openflow.Header{Xid: fm.XID() + 1}}).Marshal(want)
	if !bytes.Equal(got, want) {
		t.Fatalf("FlowMod wire bytes\n got %x\nwant %x", got, want)
	}

	batch := make([]*openflow.FlowMod, 5)
	for i := range batch {
		batch[i] = probeAdd(uint32(10 + i))
	}
	if err := c.FlowMods(batch); err != nil {
		t.Fatal(err)
	}
	cw2, got := ctrl.snapshot()
	if n := cw2 - cw1; n != 1 {
		t.Fatalf("FlowMods of 5: %d controller writes, want 1", n)
	}
	want = nil
	for _, fm := range batch {
		want = fm.Marshal(want)
	}
	want = (&openflow.BarrierRequest{Header: openflow.Header{Xid: batch[4].XID() + 1}}).Marshal(want)
	if !bytes.Equal(got, want) {
		t.Fatalf("FlowMods wire bytes\n got %x\nwant %x", got, want)
	}
}

// servePipe runs handleConn on one end of a net.Pipe and returns the other
// end and a channel that yields the handler's result. The server end is
// closed when the handler returns, which unblocks any pending peer write.
func servePipe(sw *switchsim.Switch) (net.Conn, <-chan error) {
	srvEnd, cli := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- handleConn(srvEnd, sw, serverTelemetry{}, nil)
		srvEnd.Close()
	}()
	return cli, done
}

// expectReply skips unsolicited messages until the reply with xid arrives.
func expectReply(t *testing.T, msgs <-chan openflow.Message, typ openflow.MsgType, xid uint32) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case m, ok := <-msgs:
			if !ok {
				t.Fatalf("stream closed awaiting %v xid %d", typ, xid)
			}
			if m.XID() == xid && m.Type() == typ {
				return
			}
		case <-timeout:
			t.Fatalf("timed out awaiting %v xid %d", typ, xid)
		}
	}
}

// TestServerFraming pins the server's buffered framing: a request stream
// that arrives one byte per write and a write that carries three messages
// at once both decode into the same replies.
func TestServerFraming(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	cli, _ := servePipe(sw)
	defer cli.Close()
	msgs := make(chan openflow.Message, 64)
	go func() {
		defer close(msgs)
		for {
			m, err := openflow.ReadMessage(cli)
			if err != nil {
				return
			}
			msgs <- m
		}
	}()
	expectReply(t, msgs, openflow.TypeHello, 0)

	stream := (&openflow.EchoRequest{Header: openflow.Header{Xid: 7}, Data: []byte("byte")}).Marshal(nil)
	for i := range stream {
		if _, err := cli.Write(stream[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	expectReply(t, msgs, openflow.TypeEchoReply, 7)

	fm := probeAdd(1)
	fm.SetXID(10)
	three := fm.Marshal(nil)
	three = (&openflow.EchoRequest{Header: openflow.Header{Xid: 11}}).Marshal(three)
	three = (&openflow.BarrierRequest{Header: openflow.Header{Xid: 12}}).Marshal(three)
	if _, err := cli.Write(three); err != nil {
		t.Fatal(err)
	}
	expectReply(t, msgs, openflow.TypeEchoReply, 11)
	expectReply(t, msgs, openflow.TypeBarrierReply, 12)
	if tcam, kernel, software := sw.RuleCount(); tcam+kernel+software != 1 {
		t.Fatalf("switch holds %d rules after the three-message write, want 1", tcam+kernel+software)
	}
}

// FuzzServerStream feeds arbitrary bytes to the server's agent loop. The
// handler must not panic, must return (an error or EOF) once the peer
// closes, and must leave no goroutine behind.
func FuzzServerStream(f *testing.F) {
	fm := probeAdd(1)
	fm.SetXID(1)
	valid := fm.Marshal(nil)
	valid = (&openflow.BarrierRequest{Header: openflow.Header{Xid: 2}}).Marshal(valid)
	f.Add(valid)
	f.Add(valid[:5])                                           // truncated header
	f.Add([]byte{openflow.Version, 0, 0xff, 0xff, 0, 0, 0, 1}) // length 0xFFFF
	f.Fuzz(func(t *testing.T, data []byte) {
		noLeak := leakCheck(t)
		sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
		cli, done := servePipe(sw)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			_, _ = io.Copy(io.Discard, cli)
		}()
		// A write cut short by the handler giving up is expected.
		_, _ = cli.Write(data)
		cli.Close()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("handleConn returned nil on a closed stream")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("handleConn did not return within 5s of the peer closing")
		}
		<-drained
		noLeak()
	})
}
