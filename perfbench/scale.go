package main

import (
	"fmt"
	"time"

	"tango/internal/scale"
)

// b4-scale shape: scale.Run's B4 scenario (about 1.05M resident rules over
// 12 sites, data-plane lookups with timeout churn, TE re-allocation, a
// link-failure storm and a concurrent size-inference tenant) on par shards,
// with 72 epochs instead of the default 12: with 12, the epoch rate of one
// seed's run moved by a quarter from run to run, and with 36 by a tenth;
// with 72 the steady epochs dominate. Each call sets the fleet up from
// scratch, so a run of several calls sets up several times.
const scaleEpochs = 72

func scaleOptions(seed int64) scale.Options {
	return scale.Options{Seed: seed, Shards: par, Epochs: scaleEpochs}
}

// scaleLoop runs scale.Run until the deadline; every call must keep at
// least 2^20 rules resident with no errors or table-full rejections, and
// reproduce the first call's deterministic result.
type scaleLoop struct {
	seed       int64
	ref        string
	first      *scale.Result
	calls      int
	mismatches int
	setup      []float64
	rates      []float64
	events     uint64
	resident   int
	attempted  int64
	failed     int64
}

func (l *scaleLoop) call(o *outcome) (*scale.Result, error) {
	var r *scale.Result
	if err := o.measured(func() (err error) {
		r, err = scale.Run(scaleOptions(l.seed))
		return err
	}); err != nil {
		return nil, fmt.Errorf("scale.Run: %w", err)
	}
	l.calls++
	l.setup = append(l.setup, r.SetupWall.Seconds())
	l.rates = append(l.rates, r.EventsPerSec)
	l.events += r.Events
	l.resident += r.FlowsResident
	l.attempted += int64(r.Events) + int64(r.FlowsResident)
	l.failed += int64(r.Errs + r.TableFull)
	o.check(r.FlowsResident >= 1<<20, "call %d: %d rules resident, want at least %d", l.calls, r.FlowsResident, 1<<20)
	o.check(r.Errs == 0 && r.TableFull == 0, "call %d: %d errors, %d table-full rejections", l.calls, r.Errs, r.TableFull)
	d := digestOf(r.Deterministic())
	if l.first == nil {
		l.ref, l.first = d, r
	} else if d != l.ref {
		l.mismatches++
		o.check(false, "call %d: deterministic result %s differs from the first call's %s", l.calls, d, l.ref)
	}
	return r, nil
}

func (l *scaleLoop) report(o *outcome) {
	o.setup = l.setup
	o.throughput = median(l.rates)
	o.attempted, o.failed = l.attempted, l.failed
	o.digest = l.ref
	o.line("calls %d events %d resident %d shards %d", l.calls, l.events, l.first.FlowsResident, par)
	o.line("events_per_s %.6g 1/s (median of %d scale.Run epoch loops: %s)", o.throughput, len(l.rates), spread(l.rates))
}

// bytesPerRule is peak RSS over the resident rules of one call.
func bytesPerRule(r *scale.Result) float64 {
	mb, err := peakRSSMB()
	if err != nil || r.FlowsResident == 0 {
		return 0
	}
	return mb * (1 << 20) / float64(r.FlowsResident)
}

func runScale(cfg config) (*outcome, error) {
	o := &outcome{unit: "events_per_s"}
	l := &scaleLoop{seed: cfg.seed}
	end := cfg.deadline(1)
	for l.calls < 2 || time.Now().Before(end) {
		if _, err := l.call(o); err != nil {
			return nil, err
		}
	}
	l.report(o)
	o.line("bytes_per_rule %.6g B (peak RSS over resident rules)", bytesPerRule(l.first))
	return o, nil
}

// traceScale has no seam inside scale.Run: its first call runs untraced as
// the reference, and each later call is spanned, with set-up and epoch-loop
// children placed from the Result's wall times. Layer numbers come from the
// Results and the runtime counters read around the calls; every traced call
// must reproduce the reference's deterministic result.
func traceScale(cfg config) (*outcome, error) {
	o := &outcome{unit: "events_per_s", layers: map[string]float64{}}
	l := &scaleLoop{seed: cfg.seed}
	if _, err := l.call(o); err != nil {
		return nil, err
	}
	untraced := l.rates[0]
	tr := newTracer()
	var (
		setupWall, epochWall, lag time.Duration
		events, resident          float64
		seen, slow                uint64
	)
	end := cfg.deadline(1)
	for l.calls < 2 || time.Now().Before(end) {
		root := tr.begin("scale.Run", int64(l.calls), 0)
		r, err := l.call(o)
		if err != nil {
			return nil, err
		}
		tr.end(root)
		setup := tr.child("scale.setup", root, root.Start, r.SetupWall)
		tr.child("scale.epochs", root, setup.End, r.EpochWall)
		setupWall += r.SetupWall
		epochWall += r.EpochWall
		events += float64(r.Events)
		resident += float64(r.FlowsResident)
		lag = max(lag, r.MaxShardLag)
		for _, s := range r.PerSite {
			seen += s.Stats.PacketsSeen
			slow += s.Stats.SlowHits + s.Stats.ControlMiss
		}
	}
	// Spans sit outside scale.Run, so every call counts for the runtime
	// metrics.
	o.rt.layers(float64(l.events), o.layers)
	l.report(o)
	o.throughput = untraced
	o.layers["trace.observer_effect"] = float64(l.mismatches)
	traceReport(o, tr, cfg, events/epochWall.Seconds(), l.calls-1)
	into := o.layers
	into["scale.setup_ns_per_rule"] = float64(setupWall) / resident
	into["scale.epoch_ns_per_event"] = float64(epochWall) / events
	into["scale.alloc_bytes_per_rule"] = float64(o.rt.allocBytes) / float64(l.resident)
	if seen > 0 {
		into["scale.slow_path_share"] = float64(slow) / float64(seen)
	}
	into["scale.max_shard_lag_ms"] = float64(lag) / 1e6
	into["scale.bytes_per_rule"] = bytesPerRule(l.first)
	return o, nil
}
