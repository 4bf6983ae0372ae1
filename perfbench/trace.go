package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/core/probe"
	"tango/internal/ofconn"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/switchsim"
)

// maxSpans bounds the spans a traced run keeps for its span file. Metrics
// never read stored spans, so dropping beyond the bound loses no numbers.
const maxSpans = 200_000

// span is one timed call at a layer boundary. Spans of one member-round or
// one update DAG share Group; Parent is the ID of the enclosing span (0 at
// the root). Times are offsets from the tracer's start.
type span struct {
	ID, Parent uint64
	Group      int64
	Name       string
	Start, End time.Duration
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	t0      time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; end closes it and returns its duration.
func (t *tracer) begin(name string, group int64, parent uint64) *span {
	return &span{ID: t.nextID.Add(1), Parent: parent, Group: group, Name: name, Start: time.Since(t.t0)}
}

func (t *tracer) end(s *span) time.Duration {
	s.End = time.Since(t.t0)
	t.keep(*s)
	return s.End - s.Start
}

// keep stores a finished span, or counts it as dropped past maxSpans.
func (t *tracer) keep(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// child records a span placed inside parent from durations measured
// elsewhere: calls too fine to span one by one (every switchsim call inside
// one inference, say) as one child lasting as long as they took together,
// or the phases a Result reports.
func (t *tracer) child(name string, parent *span, start, d time.Duration) span {
	s := span{ID: t.nextID.Add(1), Parent: parent.ID, Group: parent.Group, Name: name, Start: start, End: start + d}
	t.keep(s)
	return s
}

// aggregate records n fine-grained calls, busy long together, as one child
// of parent.
func (t *tracer) aggregate(name string, parent *span, busy time.Duration, n int64) {
	if n > 0 {
		t.child(fmt.Sprintf("%s x%d", name, n), parent, parent.Start, busy)
	}
}

// write stores the spans as Chrome trace_event JSON, one track per group.
func (t *tracer) write(path string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Group, Args: map[string]any{"id": s.ID, "parent": s.Parent}}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "droppedSpans": t.dropped})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return fmt.Sprintf("spans %d kept %d dropped, written to %s", len(t.spans), t.dropped, path), nil
}

// simCalls counts and times calls into one emulated switch. A device is
// driven by one goroutine at a time, so the counters need no locks; readers
// fold them after the round barrier that orders them.
type simCalls struct {
	flowMods, tableFull int64
	flowModTime         time.Duration
	frames              int64
	frameTime           time.Duration
}

func (c simCalls) busy() time.Duration { return c.flowModTime + c.frameTime }
func (c simCalls) calls() int64        { return c.flowMods + c.frames }

func (c *simCalls) add(o simCalls) {
	c.flowMods += o.flowMods
	c.tableFull += o.tableFull
	c.flowModTime += o.flowModTime
	c.frames += o.frames
	c.frameTime += o.frameTime
}

// timedSim is a probe.Device around probe.SimDevice that times every call
// into switchsim. It forwards FrameDevice, TrafficSender, Sleep, Reset and
// LabeledDevice exactly as conformance.WrapBackground does, so the probe
// engine resolves the same fast paths as on the bare device.
type timedSim struct {
	dev probe.SimDevice
	n   simCalls
}

func (d *timedSim) FlowMod(fm *openflow.FlowMod) error {
	t := time.Now()
	err := d.dev.FlowMod(fm)
	d.n.flowModTime += time.Since(t)
	d.n.flowMods++
	if errors.Is(err, switchsim.ErrTableFull) {
		d.n.tableFull++
	}
	return err
}

func (d *timedSim) SendProbe(data []byte, inPort uint16) (time.Duration, bool, error) {
	t := time.Now()
	rtt, punted, err := d.dev.SendProbe(data, inPort)
	d.n.frameTime += time.Since(t)
	d.n.frames++
	return rtt, punted, err
}

func (d *timedSim) SendFrameN(f *packet.Frame, inPort uint16, size, n int) (time.Duration, bool, error) {
	t := time.Now()
	rtt, punted, err := d.dev.SendFrameN(f, inPort, size, n)
	d.n.frameTime += time.Since(t)
	d.n.frames++
	return rtt, punted, err
}

func (d *timedSim) SendTraffic(data []byte, inPort uint16, count int) error {
	t := time.Now()
	err := d.dev.SendTraffic(data, inPort, count)
	d.n.frameTime += time.Since(t)
	d.n.frames++
	return err
}

func (d *timedSim) Now() time.Time          { return d.dev.Now() }
func (d *timedSim) Sleep(dur time.Duration) { d.dev.Sleep(dur) }
func (d *timedSim) Reset()                  { d.dev.Reset() }
func (d *timedSim) TelemetryLabel() string  { return d.dev.TelemetryLabel() }

// simLayers turns folded switchsim counters into the switchsim.* metrics;
// groups is the number of member-rounds or DAGs the calls served and
// window the time the busy share is taken of.
func simLayers(n simCalls, groups int64, window time.Duration, into map[string]float64) {
	if n.flowMods > 0 {
		into["switchsim.flowmod_ns"] = float64(n.flowModTime) / float64(n.flowMods)
		into["switchsim.table_full_ratio"] = float64(n.tableFull) / float64(n.flowMods)
	}
	if n.frames > 0 {
		into["switchsim.frame_ns"] = float64(n.frameTime) / float64(n.frames)
	}
	if groups > 0 {
		into["switchsim.flowmod_calls"] = float64(n.flowMods) / float64(groups)
		into["switchsim.frame_calls"] = float64(n.frames) / float64(groups)
	}
	if window > 0 {
		into["switchsim.busy_share"] = float64(n.busy()) / float64(window)
	}
}

// ioCounts counts socket calls on one side of the OpenFlow channel. Reads
// and writes come from different goroutines, hence the atomics.
type ioCounts struct {
	reads, writes, written atomic.Int64
	writeTime              atomic.Int64 // ns
}

// countedConn is a net.Conn that counts its reads and writes and times the
// writes (reads block on the peer, so their time is waiting, not work).
type countedConn struct {
	net.Conn
	n *ioCounts
}

func (c *countedConn) Read(b []byte) (int, error) {
	c.n.reads.Add(1)
	return c.Conn.Read(b)
}

func (c *countedConn) Write(b []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(b)
	c.n.writeTime.Add(int64(time.Since(t)))
	c.n.writes.Add(1)
	c.n.written.Add(int64(n))
	return n, err
}

// CloseRead forwards the half-close ofconn.Server.Shutdown uses to drain.
func (c *countedConn) CloseRead() error {
	if rc, ok := c.Conn.(interface{ CloseRead() error }); ok {
		return rc.CloseRead()
	}
	return c.Conn.Close()
}

// countedListener hands ofconn.NewServer connections that count their I/O.
type countedListener struct {
	net.Listener
	n *ioCounts
}

func (l *countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, n: l.n}, nil
}

// ctrlCalls times the probe engine's calls into one ofconn.Controller.
type ctrlCalls struct {
	flowMods   []float64 // µs per confirmed flow-mod (flow-mod + barrier)
	probes     []float64 // µs per PACKET_OUT → PACKET_IN round trip
	fmBytes    int64     // bytes the controller wrote inside FlowMod calls
	batches    int       // pipelined FlowModBatch calls
	ctrlWrites *ioCounts
}

// timedCtrl is a probe.Device around an ofconn.Controller that times the
// engine's calls. It forwards PipelinedDevice, LabeledDevice and Sleep, the
// optional capabilities the controller itself has, so the engine takes the
// same paths as on the bare controller.
type timedCtrl struct {
	c *ofconn.Controller
	n *ctrlCalls
}

func (d *timedCtrl) FlowMod(fm *openflow.FlowMod) error {
	w0 := d.n.ctrlWrites.written.Load()
	t := time.Now()
	err := d.c.FlowMod(fm)
	d.n.flowMods = append(d.n.flowMods, float64(time.Since(t))/1e3)
	d.n.fmBytes += d.n.ctrlWrites.written.Load() - w0
	return err
}

func (d *timedCtrl) FlowModBatch(fms []*openflow.FlowMod) ([]error, error) {
	d.n.batches++
	return d.c.FlowModBatch(fms)
}

func (d *timedCtrl) SendProbe(data []byte, inPort uint16) (time.Duration, bool, error) {
	t := time.Now()
	rtt, punted, err := d.c.SendProbe(data, inPort)
	d.n.probes = append(d.n.probes, float64(time.Since(t))/1e3)
	return rtt, punted, err
}

func (d *timedCtrl) Now() time.Time          { return d.c.Now() }
func (d *timedCtrl) Sleep(dur time.Duration) { d.c.Sleep(dur) }
func (d *timedCtrl) TelemetryLabel() string  { return d.c.TelemetryLabel() }
