package fleet

import (
	"testing"
	"time"

	"tango/internal/core/probe"
	"tango/internal/faults"
	"tango/internal/openflow"
	"tango/internal/switchsim"
)

// faultAt routes every operation to the healthy device except the ones it
// picks, which go through a fault-injecting wrapper that drops them — a
// single deterministic failure at a chosen point of a round.
type faultAt struct {
	probe.Device
	faulty probe.Device

	// failMod picks flow-mods to drop; failProbe is the 1-based index of
	// the probe to drop (0: none).
	failMod   func(fm *openflow.FlowMod) bool
	failProbe int
	probes    int
}

func (d *faultAt) FlowMod(fm *openflow.FlowMod) error {
	if d.failMod != nil && d.failMod(fm) {
		return d.faulty.FlowMod(fm)
	}
	return d.Device.FlowMod(fm)
}

func (d *faultAt) SendProbe(data []byte, inPort uint16) (time.Duration, bool, error) {
	d.probes++
	if d.probes == d.failProbe {
		return d.faulty.SendProbe(data, inPort)
	}
	return d.Device.SendProbe(data, inPort)
}

func resident(sw *switchsim.Switch) int {
	tcam, kernel, soft := sw.RuleCount()
	return tcam + kernel + soft
}

// TestFailedRoundClearsProbeRules fails one operation inside a member's
// round — a size-inference probe, then a cost-fitting modify — and checks
// that the round is counted as failed and that the member's resident rule
// count is back to its baseline afterwards: a failed round must not leak
// the probe rules it had installed.
func TestFailedRoundClearsProbeRules(t *testing.T) {
	cases := []struct {
		name      string
		costEvery int
		dev       func(d *faultAt)
	}{
		{"size-probe", -1, func(d *faultAt) { d.failProbe = 3 }},
		{"cost-modify", 1, func(d *faultAt) {
			first := true
			d.failMod = func(fm *openflow.FlowMod) bool {
				hit := first && fm.Command == openflow.FlowModifyStrict
				if hit {
					first = false
				}
				return hit
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := testOptions(5)
			o.Switches, o.Workers, o.CostEvery = 2, 1, tc.costEvery
			r, err := newRunner(o)
			if err != nil {
				t.Fatal(err)
			}
			m := r.members[0]
			baseline := resident(m.sw)
			healthy := probe.SimDevice{S: m.sw}
			inj := faults.NewInjector(faults.Config{Seed: 1, Drop: 1})
			inj.SetTelemetry(nil)
			d := &faultAt{Device: healthy, faulty: faults.WrapDevice(healthy, inj)}
			tc.dev(d)
			m.eng = probe.NewEngine(d)

			r.runMember(m, 0)
			if m.errs == 0 {
				t.Fatal("the injected fault did not fail the round")
			}
			if got := resident(m.sw); got != baseline {
				t.Fatalf("%d rules resident after the failed round, baseline %d", got, baseline)
			}
		})
	}
}
