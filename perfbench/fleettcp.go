package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sync"
	"time"

	"tango/internal/conformance"
	"tango/internal/fleet"
	"tango/internal/ofconn"
	"tango/internal/simclock"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// fleet-tcp shape: tcpMembers loopback-TCP switches (one connection each,
// no more than the benchmark's 2 CPUs), tcpRounds rounds per fleet.Run
// call, emulated latencies compressed by tcpScale as BenchmarkFleetSustained
// does, and tcpSetups spawn-and-handshake set-ups per run.
const (
	tcpMembers = 2
	tcpRounds  = 4
	tcpScale   = 1e-6
	tcpSetups  = 21
)

// tcpLoop runs fleet.Run over the TCP members until the deadline and checks
// that every member stores a ScoreCard in every round.
type tcpLoop struct {
	opts fleet.Options
	ref  []ledger

	calls     int
	infers    int
	rates     []float64
	rttP50    []float64 // µs, one per call
	attempted int64
	failed    int64
}

func (l *tcpLoop) call(o *outcome) error {
	var r *fleet.Result
	if err := o.measured(func() (err error) {
		r, err = fleet.Run(l.opts)
		return err
	}); err != nil {
		return fmt.Errorf("fleet.Run: %w", err)
	}
	l.calls++
	l.infers += r.Inferences
	l.rates = append(l.rates, r.SwitchesPerSec)
	l.rttP50 = append(l.rttP50, float64(r.P50ProbeRTT)/1e3)
	l.attempted += int64(r.TCPSwitches * r.Rounds)
	for _, s := range r.PerSwitch {
		missing := s.Rounds - s.ScoreCards
		l.failed += int64(max(missing, s.Errs))
		o.check(missing == 0 && s.Errs == 0, "call %d: %s stored %d score cards in %d rounds (%d errors)", l.calls, s.Name, s.ScoreCards, s.Rounds, s.Errs)
	}
	o.check(r.TCPSwitches == tcpMembers, "call %d: %d TCP members, want %d", l.calls, r.TCPSwitches, tcpMembers)
	got := ledgers(r)
	if l.ref == nil {
		l.ref = got
	} else if d := digestOf(got); d != digestOf(l.ref) {
		o.check(false, "call %d: ledger %s differs from the first call's %s", l.calls, d, digestOf(l.ref))
	}
	return nil
}

func (l *tcpLoop) report(o *outcome) {
	o.throughput = median(l.rates)
	o.attempted, o.failed = l.attempted, l.failed
	o.digest = digestOf(l.ref)
	o.line("calls %d inferences %d members %d rounds %d", l.calls, l.infers, tcpMembers, tcpRounds)
	o.line("infers_per_s %.6g 1/s (median of %d fleet.Run calls: %s)", median(l.rates), len(l.rates), spread(l.rates))
	o.line("probe_rtt_p50_us %.6g us (median of per-call sentinel RTT medians, loopback)", median(l.rttP50))
}

// spawnTCP starts the TCP members tcpSetups times, timing each spawn
// (listeners, servers, dials and handshakes), and keeps the last set.
func spawnTCP(seed int64) (*fleet.SimTCP, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		runtime.GC()
		t := time.Now()
		tcp, err := fleet.SpawnSimTCP(tcpMembers, seed, tcpScale, ofconn.ControllerOptions{})
		if err != nil {
			return nil, nil, fmt.Errorf("spawning TCP members: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if i == tcpSetups-1 {
			return tcp, setups, nil
		}
		tcp.Close()
	}
}

// untracedTCP runs the fleet.Run loop for share of the run's time.
func untracedTCP(cfg config, share float64, o *outcome) (*tcpLoop, error) {
	tcp, setups, err := spawnTCP(cfg.seed)
	if err != nil {
		return nil, err
	}
	defer tcp.Close()
	o.setup = setups
	l := &tcpLoop{opts: fleetOptions(cfg.seed, 0, tcpRounds)}
	l.opts.TCP = tcp.Fleet
	end := cfg.deadline(share)
	for l.calls < 3 || time.Now().Before(end) {
		if err := l.call(o); err != nil {
			return nil, err
		}
	}
	l.report(o)
	return l, nil
}

func runFleetTCP(cfg config) (*outcome, error) {
	o := &outcome{unit: "infers_per_s"}
	if _, err := untracedTCP(cfg, 1, o); err != nil {
		return nil, err
	}
	return o, nil
}

// tcpRig is the fleet-tcp traced set-up: the same servers fleet.SpawnSimTCP
// builds, but with a counting net.Listener passed to ofconn.NewServer and a
// counting net.Conn passed to ofconn.NewControllerOptions, and registries
// the benchmark reads the channel counters from.
type tcpRig struct {
	servers []*ofconn.Server
	serving sync.WaitGroup
	ctrls   []*ofconn.Controller
	ctrlIO  []*ioCounts
	srvIO   ioCounts
	ctrlReg *telemetry.Registry
	srvReg  *telemetry.Registry
}

func newTCPRig(seed int64) (*tcpRig, error) {
	g := &tcpRig{ctrlReg: telemetry.NewRegistry(), srvReg: telemetry.NewRegistry()}
	quiet := log.New(io.Discard, "", 0)
	for i, spec := range conformance.GenerateSpecs(tcpMembers, seed) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			g.close()
			return nil, fmt.Errorf("tcp member %d: %w", i, err)
		}
		sw := switchsim.New(spec.Profile, switchsim.WithClock(&simclock.Real{Scale: tcpScale}), switchsim.WithSeed(spec.Seed))
		srv := ofconn.NewServer(&countedListener{Listener: ln, n: &g.srvIO}, sw, ofconn.ServeOptions{Logger: quiet, Metrics: g.srvReg})
		g.servers = append(g.servers, srv)
		g.serving.Add(1)
		go func() {
			defer g.serving.Done()
			_ = srv.Serve() // returns nil once Shutdown closes the listener
		}()
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			g.close()
			return nil, fmt.Errorf("tcp member %d: %w", i, err)
		}
		n := &ioCounts{}
		c, err := ofconn.NewControllerOptions(&countedConn{Conn: conn, n: n}, ofconn.ControllerOptions{Metrics: g.ctrlReg})
		if err != nil {
			g.close()
			return nil, fmt.Errorf("tcp member %d: %w", i, err)
		}
		g.ctrls = append(g.ctrls, c)
		g.ctrlIO = append(g.ctrlIO, n)
	}
	return g, nil
}

// close disconnects the controllers, drains the servers and waits until
// every accept loop has returned.
func (g *tcpRig) close() {
	for _, c := range g.ctrls {
		_ = c.Close()
	}
	for _, s := range g.servers {
		_ = s.Shutdown(time.Second)
	}
	g.serving.Wait()
}

// chanCounts is a read of every channel counter the ofconn metrics use.
type chanCounts struct {
	ctrlReads, ctrlWrites, srvReads, srvWrites int64
	writeTime                                  time.Duration
	ctrlIn, ctrlOut, srvIn, srvOut             int64
}

func (g *tcpRig) counts() chanCounts {
	c := chanCounts{
		srvReads:  g.srvIO.reads.Load(),
		srvWrites: g.srvIO.writes.Load(),
		writeTime: time.Duration(g.srvIO.writeTime.Load()),
		ctrlIn:    g.ctrlReg.Counter("ofconn.controller.msgs_in").Value(),
		ctrlOut:   g.ctrlReg.Counter("ofconn.controller.msgs_out").Value(),
		srvIn:     g.srvReg.Counter("ofconn.msgs_in").Value(),
		srvOut:    g.srvReg.Counter("ofconn.msgs_out").Value(),
	}
	for _, n := range g.ctrlIO {
		c.ctrlReads += n.reads.Load()
		c.ctrlWrites += n.writes.Load()
		c.writeTime += time.Duration(n.writeTime.Load())
	}
	return c
}

// traceFleetTCP runs the untraced fleet.Run loop for two fifths of the time,
// then replays member-rounds on the counting rig for the rest.
func traceFleetTCP(cfg config) (*outcome, error) {
	o := &outcome{unit: "infers_per_s", layers: map[string]float64{}}
	l, err := untracedTCP(cfg, 0.4, o)
	if err != nil {
		return nil, err
	}
	o.rt.layers(float64(l.infers), o.layers)
	o.tracing = true

	g, err := newTCPRig(cfg.seed)
	if err != nil {
		return nil, err
	}
	defer g.close()
	c0 := g.counts()
	tr := newTracer()
	calls := make([]*ctrlCalls, tcpMembers)
	for i := range calls {
		calls[i] = &ctrlCalls{ctrlWrites: g.ctrlIO[i]}
	}
	var (
		st      roundStats
		infers  int64
		wall    time.Duration
		replays int
	)
	end := cfg.deadline(0.6)
	for replays < 1 || time.Now().Before(end) {
		// A fresh engine per member and call, on the same connections, as
		// every fleet.Run call builds.
		members := make([]*replayMember, tcpMembers)
		for i, c := range g.ctrls {
			members[i] = newReplayMember(i, fmt.Sprintf("tcp-%03d", i), &timedCtrl{c: c, n: calls[i]})
			members[i].tcp = true
		}
		_ = o.measured(func() error {
			t := time.Now()
			st.add(replayRounds(members, l.opts, tr, replays))
			wall += time.Since(t)
			return nil
		})
		replays++
		led := make([]ledger, len(members))
		for i, m := range members {
			led[i] = m.led
			infers += int64(m.led.Inferences)
		}
		if digestOf(led) != digestOf(l.ref) {
			o.layers["trace.observer_effect"]++
			o.check(false, "replay %d: member ledger %s differs from fleet.Run's %s", replays, digestOf(led), digestOf(l.ref))
		}
	}
	c1 := g.counts()
	traceReport(o, tr, cfg, float64(infers)/wall.Seconds(), replays)
	inferLayers(st, o)
	ofconnLayers(calls, c0, c1, st.roundTime, o)
	return o, nil
}

// ofconnLayers fills the ofconn.* metrics from the timed controller calls
// and the channel counters read before and after the replay.
func ofconnLayers(calls []*ctrlCalls, c0, c1 chanCounts, window time.Duration, o *outcome) {
	var fms, probes []float64
	var fmBytes int64
	var batches int
	for _, c := range calls {
		fms = append(fms, c.flowMods...)
		probes = append(probes, c.probes...)
		fmBytes += c.fmBytes
		batches += c.batches
	}
	into := o.layers
	into["ofconn.flowmod_us_p50"] = median(fms)
	into["ofconn.probe_us_p50"] = median(probes)
	pct, v := tail(probes)
	into["ofconn.probe_us_tail"] = v
	o.line("ofconn.probe_us_tail is p%g of %d probe round trips; %d confirmed flow-mods, %d pipelined batches", pct, len(probes), len(fms), batches)
	if n := c1.ctrlOut - c0.ctrlOut; n > 0 {
		into["ofconn.ctrl_writes_per_msg"] = float64(c1.ctrlWrites-c0.ctrlWrites) / float64(n)
	}
	if n := c1.srvOut - c0.srvOut; n > 0 {
		into["ofconn.srv_writes_per_msg"] = float64(c1.srvWrites-c0.srvWrites) / float64(n)
	}
	if n := (c1.ctrlIn - c0.ctrlIn) + (c1.srvIn - c0.srvIn); n > 0 {
		into["ofconn.reads_per_msg"] = float64((c1.ctrlReads-c0.ctrlReads)+(c1.srvReads-c0.srvReads)) / float64(n)
	}
	if len(fms) > 0 {
		into["ofconn.bytes_per_flowmod"] = float64(fmBytes) / float64(len(fms))
	}
	if window > 0 {
		into["ofconn.io_share"] = float64(c1.writeTime-c0.writeTime) / float64(window)
	}
}
