package main

import (
	"fmt"
	"sync"
	"time"

	"tango/internal/core/infer"
	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/core/sched"
	"tango/internal/dag"
	"tango/internal/experiments"
	"tango/internal/switchsim"
)

// sched-update shape: schedDAGs update DAGs of the BenchmarkSchedRun shape
// (32 switches, 6400 requests, 40 dependency levels) at successive seeds.
// The run is several DAGs rather than one large one because
// experiments.SchedWorkload draws add priorities as uint16(1000 +
// rng.Intn(total)): one DAG of more than 64,535 requests would wrap them
// and silently change the update being scheduled.
const (
	schedSwitches = 32
	schedTotal    = 6400
	schedLevels   = 40
	schedDAGs     = 4
)

// schedProfile gives switch s one of the three hardware profiles, so the
// score DB and the executors mix TCAM shift costs and cache hierarchies.
func schedProfile(s int) switchsim.Profile {
	switch s % 3 {
	case 0:
		return switchsim.Switch1()
	case 1:
		return switchsim.Switch2()
	default:
		return switchsim.Switch3()
	}
}

func schedSwitch(s int) string { return fmt.Sprintf("bench-%02d", s) }

// schedSet is one update cycle's inputs: the score DB fitted by
// infer.MeasureCosts, and per DAG a request graph with an executor whose
// engines already hold the DAG's modify and delete targets.
type schedSet struct {
	db       *pattern.DB
	graphs   []*sched.Graph
	execs    []sched.EngineExecutor
	devs     [][]*timedSim // per DAG, per switch; nil when untimed
	requests int
}

// prepareSched builds a schedSet; timed puts every executor engine on a
// timedSim device.
func prepareSched(seed int64, timed bool) (*schedSet, error) {
	set := &schedSet{db: pattern.NewDB()}
	for s := 0; s < schedSwitches; s++ {
		sw := switchsim.New(schedProfile(s), switchsim.WithSeed(seed*1000+int64(s)))
		card, err := infer.MeasureCosts(probe.NewEngine(probe.SimDevice{S: sw}), schedSwitch(s), infer.CostOptions{})
		if err != nil {
			return nil, fmt.Errorf("fitting %s: %w", schedSwitch(s), err)
		}
		set.db.PutScore(card)
	}
	for k := 0; k < schedDAGs; k++ {
		g, _ := experiments.SchedWorkload(schedSwitches, schedTotal, schedLevels, seed*schedDAGs+int64(k))
		ex := sched.EngineExecutor{}
		var devs []*timedSim
		for s := 0; s < schedSwitches; s++ {
			var dev probe.Device = probe.SimDevice{S: switchsim.New(schedProfile(s), switchsim.WithSeed(seed*1000+int64(k*schedSwitches+s)))}
			if timed {
				d := &timedSim{dev: dev.(probe.SimDevice)}
				devs = append(devs, d)
				dev = d
			}
			ex[schedSwitch(s)] = probe.NewEngine(dev)
		}
		for _, id := range g.Nodes() {
			r := g.Payload(id)
			if r.Op == pattern.OpMod || r.Op == pattern.OpDel {
				if err := ex[r.Switch].Install(r.FlowID, r.Priority); err != nil {
					return nil, fmt.Errorf("preloading %s flow %d: %w", r.Switch, r.FlowID, err)
				}
			}
		}
		for _, d := range devs {
			d.n = simCalls{} // count the update, not the preload
		}
		set.requests += g.Len()
		set.graphs = append(set.graphs, g)
		set.execs = append(set.execs, ex)
		set.devs = append(set.devs, devs)
	}
	return set, nil
}

// dagOutcome is the deterministic result of scheduling one DAG.
type dagOutcome struct {
	Makespan time.Duration
	Rounds   int
}

// schedLoop prepares and runs update cycles until the deadline; every
// cycle must drain every DAG and reproduce the first cycle's makespans.
type schedLoop struct {
	seed      int64
	ref       []dagOutcome
	cycles    int
	requests  int
	setup     []float64
	rates     []float64
	attempted int64
	failed    int64
}

// cycle runs one update cycle. With tr set, the scheduler and executor are
// wrapped and sched.Run is spanned; rt collects the layer numbers.
func (l *schedLoop) cycle(o *outcome, tr *tracer, rt *schedTrace) error {
	var set *schedSet
	var got []dagOutcome
	var busy time.Duration
	if err := o.measured(func() (err error) {
		t := time.Now()
		if set, err = prepareSched(l.seed, tr != nil); err != nil {
			return err
		}
		l.setup = append(l.setup, time.Since(t).Seconds())
		got, busy = l.runSet(o, set, tr, rt)
		return nil
	}); err != nil {
		return err
	}
	l.cycles++
	l.requests += set.requests
	l.rates = append(l.rates, float64(set.requests)/busy.Seconds())
	if l.ref == nil {
		l.ref = got
	} else if digestOf(got) != digestOf(l.ref) {
		o.check(false, "cycle %d: makespans %v differ from the first cycle's %v", l.cycles, got, l.ref)
		if rt != nil {
			rt.mismatches++
		}
	}
	return nil
}

// runSet schedules every DAG of a set and returns the outcomes and the
// time spent in sched.Run.
func (l *schedLoop) runSet(o *outcome, set *schedSet, tr *tracer, rt *schedTrace) ([]dagOutcome, time.Duration) {
	tg := &sched.Tango{DB: set.db, SortPriorities: true}
	var got []dagOutcome
	var busy time.Duration
	for k, g := range set.graphs {
		n := g.Len()
		var s sched.Scheduler = tg
		var ex sched.Executor = set.execs[k]
		var root *span
		if tr != nil {
			group := int64(l.cycles*schedDAGs + k)
			root = tr.begin("sched.Run", group, 0)
			rt.startRun()
			s = &timedScheduler{inner: tg, tr: tr, rt: rt, group: group, parent: root.ID}
			ex = &timedExecutor{inner: ex, tr: tr, rt: rt, group: group, parent: root.ID}
		}
		t := time.Now()
		res, err := sched.Run(g, s, ex, sched.RunOptions{Workers: par})
		busy += time.Since(t)
		if tr != nil {
			rt.endRun(tr, root)
			for _, d := range set.devs[k] {
				rt.sim.add(d.n)
			}
		}
		l.attempted += int64(n)
		if err != nil || g.Len() != 0 {
			l.failed += int64(g.Len())
			o.check(false, "cycle %d DAG %d: %d of %d requests left undrained (%v)", l.cycles, k, g.Len(), n, err)
			got = append(got, dagOutcome{})
			continue
		}
		got = append(got, dagOutcome{res.Makespan, res.Rounds})
	}
	return got, busy
}

func (l *schedLoop) report(o *outcome) {
	o.setup = l.setup
	o.throughput = median(l.rates)
	o.attempted, o.failed = l.attempted, l.failed
	o.digest = digestOf(l.ref)
	var sum time.Duration
	for _, d := range l.ref {
		sum += d.Makespan
	}
	o.line("cycles %d DAGs %d requests %d", l.cycles, l.cycles*schedDAGs, l.requests)
	o.line("requests_per_s %.6g 1/s (median of %d update cycles: %s)", o.throughput, len(l.rates), spread(l.rates))
	o.line("makespan_s %.6g s (mean virtual makespan of the %d DAGs; deterministic)", (sum / schedDAGs).Seconds(), schedDAGs)
}

func runSched(cfg config) (*outcome, error) {
	o := &outcome{unit: "requests_per_s"}
	l := &schedLoop{seed: cfg.seed}
	end := cfg.deadline(1)
	for l.cycles < 3 || time.Now().Before(end) {
		if err := l.cycle(o, nil, nil); err != nil {
			return nil, err
		}
	}
	l.report(o)
	return o, nil
}

// schedTrace accumulates the sched.* layer numbers. Order and Execute run
// on sched.Run's workers, hence the lock.
type schedTrace struct {
	mu                  sync.Mutex
	children            []interval // of the current sched.Run
	orderTime, execTime time.Duration
	orderReqs, execOps  int64
	execCalls           int64
	runTime, runSelf    time.Duration
	runs                int64
	sim                 simCalls
	mismatches          int
}

func (rt *schedTrace) startRun() { rt.children = rt.children[:0] }

func (rt *schedTrace) child(s *span, order bool, n int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.children = append(rt.children, interval{s.Start, s.End})
	if order {
		rt.orderTime += s.End - s.Start
		rt.orderReqs += int64(n)
	} else {
		rt.execTime += s.End - s.Start
		rt.execOps += int64(n)
		rt.execCalls++
	}
}

// endRun closes a sched.Run span and books its self time: the part of the
// run no Order or Execute span covers, which is the frontier, grouping and
// the fold.
func (rt *schedTrace) endRun(tr *tracer, root *span) {
	d := tr.end(root)
	rt.runTime += d
	rt.runSelf += d - covered(root.Start, root.End, rt.children)
	rt.runs++
}

// timedScheduler spans every Order call of the wrapped scheduler and
// forwards sched.BatchEstimator, so the non-greedy path sees the same
// estimates.
type timedScheduler struct {
	inner  sched.Scheduler
	tr     *tracer
	rt     *schedTrace
	group  int64
	parent uint64
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Order(sw string, reqs []*sched.Request, ids []dag.NodeID, g *sched.Graph) []*sched.Request {
	sp := s.tr.begin("sched.Order", s.group, s.parent)
	out := s.inner.Order(sw, reqs, ids, g)
	s.tr.end(sp)
	s.rt.child(sp, true, len(reqs))
	return out
}

func (s *timedScheduler) EstimateBatch(sw string, reqs []*sched.Request) (time.Duration, bool) {
	if be, ok := s.inner.(sched.BatchEstimator); ok {
		return be.EstimateBatch(sw, reqs)
	}
	return 0, false
}

// timedExecutor spans every Execute call of the wrapped executor.
type timedExecutor struct {
	inner  sched.Executor
	tr     *tracer
	rt     *schedTrace
	group  int64
	parent uint64
}

func (x *timedExecutor) Execute(sw string, ops []pattern.Op) (time.Duration, error) {
	sp := x.tr.begin("sched.Execute", x.group, x.parent)
	d, err := x.inner.Execute(sw, ops)
	x.tr.end(sp)
	x.rt.child(sp, false, len(ops))
	return d, err
}

// traceSched runs untraced update cycles for two fifths of the time, then
// traced cycles for the rest, and checks the traced makespans and rounds
// against the untraced ones.
func traceSched(cfg config) (*outcome, error) {
	o := &outcome{unit: "requests_per_s", layers: map[string]float64{}}
	l := &schedLoop{seed: cfg.seed}
	end := cfg.deadline(0.4)
	for l.cycles < 2 || time.Now().Before(end) {
		if err := l.cycle(o, nil, nil); err != nil {
			return nil, err
		}
	}
	o.rt.layers(float64(l.requests), o.layers)
	l.report(o)
	o.tracing = true

	tr := newTracer()
	rt := &schedTrace{}
	traced := &schedLoop{seed: cfg.seed, ref: l.ref}
	end = cfg.deadline(0.6)
	for traced.cycles < 1 || time.Now().Before(end) {
		if err := traced.cycle(o, tr, rt); err != nil {
			return nil, err
		}
	}
	o.attempted += traced.attempted
	o.failed += traced.failed
	o.layers["trace.observer_effect"] = float64(rt.mismatches)
	traceReport(o, tr, cfg, median(traced.rates), traced.cycles)

	into := o.layers
	if rt.orderReqs > 0 {
		into["sched.order_ns_per_req"] = float64(rt.orderTime) / float64(rt.orderReqs)
	}
	if rt.execOps > 0 {
		into["sched.execute_ns_per_op"] = float64(rt.execTime) / float64(rt.execOps)
		into["sched.batch_ops_mean"] = float64(rt.execOps) / float64(rt.execCalls)
	}
	if rt.runTime > 0 {
		into["sched.run_self_share"] = float64(rt.runSelf) / float64(rt.runTime)
	}
	var rounds int
	var makespan time.Duration
	for _, d := range l.ref {
		rounds += d.Rounds
		makespan += d.Makespan
	}
	into["sched.rounds"] = float64(rounds) / schedDAGs
	into["sched.makespan_s"] = (makespan / schedDAGs).Seconds()
	simLayers(rt.sim, rt.runs, rt.execTime, into)
	return o, nil
}
