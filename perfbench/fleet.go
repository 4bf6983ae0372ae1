package main

import (
	"fmt"
	"sync"
	"time"

	"tango/internal/conformance"
	"tango/internal/core/infer"
	"tango/internal/core/probe"
	"tango/internal/fleet"
	"tango/internal/simclock"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// Fleet workload shape. A fleet-sim call is one fleet.Run over simMembers
// in-process members for simRounds rounds; the loop repeats the call with
// the same inputs until the time is up, and every call must reproduce the
// first call's ledger.
const (
	simMembers = 64
	simRounds  = 2
	// sizeTolerance is the fleet-sim accuracy gate: every inferred cache
	// size within 10% of the conformance.GenerateSpecs ground truth.
	sizeTolerance = 0.10
)

// fleetOptions fixes every fleet.Options field the replay must mirror, so
// the untraced fleet.Run and the traced replay run the same rounds.
func fleetOptions(seed int64, members, rounds int) fleet.Options {
	return fleet.Options{
		Switches:       members,
		Workers:        par,
		Rounds:         rounds,
		Seed:           seed,
		MaxRules:       1024,
		Trials:         2,
		CostEvery:      2,
		CostSamples:    32,
		SentinelProbes: 8,
	}
}

// ledger is the deterministic part of one member's SwitchSummary: the
// fields the no-observer-effect check compares.
type ledger struct {
	Name                          string
	Rounds, Inferences, Errs      int
	Levels, CacheSize, ScoreCards int
	FlowMods, Probes, Punted      int64
}

func ledgers(r *fleet.Result) []ledger {
	out := make([]ledger, len(r.PerSwitch))
	for i, s := range r.PerSwitch {
		out[i] = ledger{s.Name, s.Rounds, s.Inferences, s.Errs, s.Levels, s.CacheSize, s.ScoreCards, s.FlowMods, s.Probes, s.Punted}
	}
	return out
}

// simLoop runs fleet.Run repeatedly until the deadline and checks every
// call: inferred cache sizes against ground truth, no inference errors,
// and a ledger identical to the first call's.
type simLoop struct {
	specs []conformance.Spec
	opts  fleet.Options
	ref   []ledger

	calls     int
	infers    int
	rates     []float64
	setup     []float64
	attempted int64
	failed    int64
}

func (l *simLoop) call(o *outcome) error {
	var r *fleet.Result
	var wall time.Duration
	if err := o.measured(func() (err error) {
		t := time.Now()
		r, err = fleet.Run(l.opts)
		wall = time.Since(t)
		return err
	}); err != nil {
		return fmt.Errorf("fleet.Run: %w", err)
	}
	l.setup = append(l.setup, (wall - r.Wall).Seconds())
	l.calls++
	l.infers += r.Inferences
	l.rates = append(l.rates, r.SwitchesPerSec)
	l.attempted += int64(r.Switches * r.Rounds)
	l.failed += int64(r.InferErrs)
	for i, s := range r.PerSwitch {
		want := l.specs[i].CacheSize
		if err := float64(abs(s.CacheSize-want)) / float64(want); err > sizeTolerance {
			l.failed++
			// Later calls repeat the first (the ledger check below), so
			// report each wrong size once.
			if l.calls == 1 {
				o.check(false, "%s: inferred cache %d, truth %d (%.1f%% off)", s.Name, s.CacheSize, want, 100*err)
			}
		}
	}
	o.check(r.InferErrs == 0, "call %d: %d inference errors", l.calls, r.InferErrs)
	got := ledgers(r)
	if l.ref == nil {
		l.ref = got
	} else if d := digestOf(got); d != digestOf(l.ref) {
		o.check(false, "call %d: ledger %s differs from the first call's %s", l.calls, d, digestOf(l.ref))
	}
	return nil
}

func newSimLoop(seed int64) *simLoop {
	return &simLoop{
		specs: conformance.GenerateSpecs(simMembers, seed),
		opts:  fleetOptions(seed, simMembers, simRounds),
	}
}

func runFleetSim(cfg config) (*outcome, error) {
	o := &outcome{unit: "infers_per_s"}
	l := newSimLoop(cfg.seed)
	end := cfg.deadline(1)
	for l.calls < 3 || time.Now().Before(end) {
		if err := l.call(o); err != nil {
			return nil, err
		}
	}
	l.report(o)
	return o, nil
}

func (l *simLoop) report(o *outcome) {
	o.setup = l.setup
	o.throughput = median(l.rates)
	o.attempted, o.failed = l.attempted, l.failed
	o.digest = digestOf(l.ref)
	o.line("calls %d inferences %d members %d rounds %d", l.calls, l.infers, simMembers, simRounds)
	o.line("infers_per_s %.6g 1/s (median of %d fleet.Run calls: %s)", median(l.rates), len(l.rates), spread(l.rates))
}

// Constants fleet.runMember uses, mirrored so the replay issues the same
// flow IDs and priorities.
const (
	fleetProbePriority        = 1000
	fleetSizeFlowBase  uint32 = 1 << 16
	fleetSentinelBase  uint32 = 1 << 30
)

// replayMember is one fleet member replayed on timed seams: the same
// engine wiring as fleet.newRunner and the same calls, in the same order,
// as fleet.runMember.
type replayMember struct {
	idx  int
	name string
	tcp  bool
	eng  *probe.Engine
	sim  *timedSim // simulated members only
	led  ledger
}

func newReplayMember(idx int, name string, dev probe.Device) *replayMember {
	m := &replayMember{idx: idx, name: name, led: ledger{Name: name}}
	m.eng = probe.NewEngine(dev)
	m.eng.SetTelemetry(telemetry.NewRegistry(), nil)
	m.eng.SetFlight(nil)
	m.eng.SetLabel(name)
	return m
}

func newSimMembers(specs []conformance.Spec) []*replayMember {
	ms := make([]*replayMember, len(specs))
	for i, spec := range specs {
		sw := switchsim.New(spec.Profile, switchsim.WithClock(simclock.NewVirtual()), switchsim.WithSeed(spec.Seed))
		d := &timedSim{dev: probe.SimDevice{S: sw}}
		ms[i] = newReplayMember(i, fmt.Sprintf("sim-%03d", i), d)
		ms[i].sim = d
	}
	return ms
}

// roundStats is what one replayed member-round contributes to the layers.
type roundStats struct {
	size, cost []float64 // ms per ProbeSizes / MeasureCosts call
	sizeTime   time.Duration
	sizeSim    time.Duration // switchsim time inside ProbeSizes
	roundTime  time.Duration
	ops        int64 // engine ops (flow-mods, probes, traffic)
	infers     int64
}

func (s *roundStats) add(o roundStats) {
	s.size = append(s.size, o.size...)
	s.cost = append(s.cost, o.cost...)
	s.sizeTime += o.sizeTime
	s.sizeSim += o.sizeSim
	s.roundTime += o.roundTime
	s.ops += o.ops
	s.infers += o.infers
}

func (m *replayMember) simBusy() time.Duration {
	if m.sim == nil {
		return 0
	}
	return m.sim.n.busy()
}

func (m *replayMember) simCalls() int64 {
	if m.sim == nil {
		return 0
	}
	return m.sim.n.calls()
}

// round replays fleet.runMember for one member and round (pacing is off in
// the benchmark, so budget admission is a no-op and is skipped).
func (m *replayMember) round(o fleet.Options, round int, tr *tracer, group int64) roundStats {
	var st roundStats
	before := m.eng.Stats()
	root := tr.begin("member-round", group, 0)
	cost := func() {
		s := tr.begin("infer.MeasureCosts", group, root.ID)
		b0, c0 := m.simBusy(), m.simCalls()
		_, err := infer.MeasureCosts(m.eng, m.name, infer.CostOptions{Samples: o.CostSamples})
		d := tr.end(s)
		tr.aggregate("switchsim", s, m.simBusy()-b0, m.simCalls()-c0)
		st.cost = append(st.cost, float64(d)/1e6)
		st.infers++
		if err != nil {
			m.led.Errs++
			return
		}
		m.led.ScoreCards++
		if m.tcp {
			m.led.Inferences++
		}
	}
	if m.tcp {
		cost()
	} else {
		base := fleetSizeFlowBase + uint32(round)*uint32(2*o.MaxRules)
		s := tr.begin("infer.ProbeSizes", group, root.ID)
		b0, c0 := m.simBusy(), m.simCalls()
		res, err := infer.ProbeSizes(m.eng, infer.SizeOptions{
			Priority:   fleetProbePriority,
			MaxRules:   o.MaxRules,
			Trials:     o.Trials,
			Seed:       o.Seed + int64(m.idx)*1_000_003 + int64(round)*7919,
			FlowIDBase: base,
		})
		d := tr.end(s)
		tr.aggregate("switchsim", s, m.simBusy()-b0, m.simCalls()-c0)
		st.size = append(st.size, float64(d)/1e6)
		st.sizeTime += d
		st.sizeSim += m.simBusy() - b0
		st.infers++
		if err != nil {
			m.led.Errs++
		} else {
			m.led.Inferences++
			m.led.Levels = len(res.Levels)
			if len(res.Levels) > 0 {
				m.led.CacheSize = res.Levels[0].Census
			}
			m.eng.ClearProbeRules(base, uint32(res.RulesInstalled), fleetProbePriority)
		}
		if o.CostEvery > 0 && round%o.CostEvery == 0 {
			cost()
		}
	}

	s := tr.begin("sentinel", group, root.ID)
	b0, c0 := m.simBusy(), m.simCalls()
	sid := fleetSentinelBase + uint32(round)
	if err := m.eng.Install(sid, fleetProbePriority); err != nil {
		m.led.Errs++
	} else {
		for i := 0; i < o.SentinelProbes; i++ {
			if _, _, err := m.eng.Probe(sid); err != nil {
				m.led.Errs++
				break
			}
		}
		_ = m.eng.Delete(sid, fleetProbePriority)
	}
	tr.end(s)
	tr.aggregate("switchsim", s, m.simBusy()-b0, m.simCalls()-c0)
	st.roundTime = tr.end(root)

	m.led.Rounds++
	after := m.eng.Stats()
	m.led.FlowMods, m.led.Probes, m.led.Punted = after.FlowMods, after.Probes, after.Punted
	st.ops = (after.FlowMods + after.Probes + after.Traffic) - (before.FlowMods + before.Probes + before.Traffic)
	return st
}

// replayRounds runs rounds over the members the way fleet.round does:
// members strided over par workers by index, one barrier per round. It
// returns the folded round statistics.
func replayRounds(members []*replayMember, o fleet.Options, tr *tracer, call int) roundStats {
	var total roundStats
	var mu sync.Mutex
	for n := 0; n < o.Rounds; n++ {
		var wg sync.WaitGroup
		workers := min(par, len(members))
		wg.Add(workers)
		for k := 0; k < workers; k++ {
			go func(k int) {
				defer wg.Done()
				var local roundStats
				for i := k; i < len(members); i += workers {
					group := int64(call)<<20 | int64(i)<<8 | int64(n)
					local.add(members[i].round(o, n, tr, group))
				}
				mu.Lock()
				total.add(local)
				mu.Unlock()
			}(k)
		}
		wg.Wait()
	}
	return total
}

// sizeLayerUnits are the units of the size-inference metrics only fleet-sim
// measures. Fleet-sim is not in BENCHMARK.json, so a traced run prints
// them in its report but not in its result line.
var sizeLayerUnits = map[string]string{
	"infer.size_ms_p50":     "ms",
	"infer.size_ms_tail":    "ms",
	"infer.size_self_share": "ratio",
}

// inferLayers fills the infer.* and probe.* metrics from folded rounds.
func inferLayers(st roundStats, o *outcome) {
	into := o.layers
	if len(st.size) > 0 {
		into["infer.size_ms_p50"] = median(st.size)
		pct, v := tail(st.size)
		into["infer.size_ms_tail"] = v
		o.line("infer.size_ms_tail is p%g of %d ProbeSizes calls", pct, len(st.size))
	}
	if st.sizeTime > 0 {
		into["infer.size_self_share"] = float64(st.sizeTime-st.sizeSim) / float64(st.sizeTime)
	}
	if len(st.cost) > 0 {
		into["infer.cost_ms_p50"] = median(st.cost)
	}
	if st.infers > 0 {
		into["probe.ops_per_inference"] = float64(st.ops) / float64(st.infers)
	}
}

// traceFleetSim runs the untraced loop for two fifths of the time (the
// reference ledger, the untraced rate and the runtime metrics), then
// replays member-rounds on timed seams for the rest.
func traceFleetSim(cfg config) (*outcome, error) {
	o := &outcome{unit: "infers_per_s", layers: map[string]float64{}}
	l := newSimLoop(cfg.seed)
	end := cfg.deadline(0.4)
	for l.calls < 2 || time.Now().Before(end) {
		if err := l.call(o); err != nil {
			return nil, err
		}
	}
	o.rt.layers(float64(l.infers), o.layers)
	l.report(o)
	o.tracing = true

	tr := newTracer()
	var (
		st      roundStats
		sims    simCalls
		groups  int64
		infers  int64
		wall    time.Duration
		replays int
	)
	end = cfg.deadline(0.6)
	for replays < 1 || time.Now().Before(end) {
		members := newSimMembers(l.specs)
		var got roundStats
		_ = o.measured(func() error {
			t := time.Now()
			got = replayRounds(members, l.opts, tr, replays)
			wall += time.Since(t)
			return nil
		})
		replays++
		st.add(got)
		groups += int64(len(members) * l.opts.Rounds)
		led := make([]ledger, len(members))
		for i, m := range members {
			sims.add(m.sim.n)
			led[i] = m.led
			infers += int64(m.led.Inferences)
		}
		if digestOf(led) != digestOf(l.ref) {
			o.layers["trace.observer_effect"]++
			o.check(false, "replay %d: member ledger %s differs from fleet.Run's %s", replays, digestOf(led), digestOf(l.ref))
		}
	}
	traceReport(o, tr, cfg, float64(infers)/wall.Seconds(), replays)
	simLayers(sims, groups, st.roundTime, o.layers)
	inferLayers(st, o)
	return o, nil
}

// traceReport prints the traced run's own end-to-end number against the
// untraced one, and writes the span file.
func traceReport(o *outcome, tr *tracer, cfg config, traced float64, replays int) {
	o.layers["trace.throughput_per_s"] = traced
	if o.throughput > 0 {
		o.layers["trace.overhead_share"] = 1 - traced/o.throughput
	}
	o.line("traced %s %.6g 1/s over %d traced calls; untraced %.6g 1/s; overhead %.2f%%",
		o.unit, traced, replays, o.throughput, 100*o.layers["trace.overhead_share"])
	if o.layers["trace.observer_effect"] == 0 {
		o.line("no-observer-effect: traced outputs match the untraced run")
	}
	msg, err := tr.write(cfg.traceOut)
	if err != nil {
		o.check(false, "writing spans: %v", err)
		return
	}
	o.line("%s", msg)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
