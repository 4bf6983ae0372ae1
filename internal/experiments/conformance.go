package experiments

import (
	"fmt"

	"tango/internal/conformance"
	"tango/internal/faults"
)

// Conformance runs the ground-truth inference conformance harness as a
// benchmark table: n randomized switch profiles, probed end to end
// (size then policy) through an optionally faulty control channel. With an
// empty faultSpec the table is the clean-channel regression — every size
// within 10%, every policy exact; with faults it reports how gracefully
// inference degrades (typed faults, never hangs).
func Conformance(n int, seed int64, faultSpec string) (*Table, error) {
	cfg, err := faults.ParseSpec(faultSpec)
	if err != nil {
		return nil, fmt.Errorf("experiments: conformance: %w", err)
	}
	title := fmt.Sprintf("Inference conformance (%d randomized profiles, seed %d", n, seed)
	if cfg.Enabled() {
		title += ", faults " + cfg.String()
	}
	title += ")"
	t := &Table{
		Title:  title,
		Header: []string{"profile", "true size", "estimate", "err", "policy", "recovered", "outcome"},
	}
	specs := conformance.GenerateSpecs(n, seed)
	results := conformance.Run(specs, conformance.Options{Faults: cfg, Workers: Workers})
	for _, r := range results {
		truePolicy, recovered := "-", "-"
		if r.PolicyChecked || len(r.Spec.Policy.Keys) > 0 {
			truePolicy = r.Spec.Policy.String()
		}
		if r.Err != nil {
			outcome := "ORGANIC FAIL: " + r.Err.Error()
			if r.FaultTyped {
				outcome = "typed fault: " + r.Err.Error()
			}
			t.Rows = append(t.Rows, []string{r.Spec.Name, fmt.Sprint(r.Spec.CacheSize), "-", "-", truePolicy, "-", outcome})
			continue
		}
		if r.PolicyChecked {
			recovered = r.InferredPolicy.String()
		}
		outcome := "ok"
		if !r.SizeOK {
			outcome = "size off"
		}
		if r.PolicyChecked && !r.PolicyOK {
			outcome = "policy wrong"
		}
		t.Rows = append(t.Rows, []string{
			r.Spec.Name,
			fmt.Sprint(r.Spec.CacheSize),
			fmt.Sprint(r.SizeEstimate),
			fmt.Sprintf("%.1f%%", 100*r.SizeError),
			truePolicy,
			recovered,
			outcome,
		})
	}
	sum := conformance.Summarize(results)
	t.Rows = append(t.Rows, []string{"TOTAL", "", "", fmt.Sprintf("max %.1f%%", 100*sum.MaxSizeError), "",
		fmt.Sprintf("%d/%d exact", sum.PolicyExact, sum.PolicyChecked),
		fmt.Sprintf("converged %d/%d, typed faults %d, organic %d", sum.Converged, sum.Profiles, sum.TypedFaults, sum.OrganicFails)})
	return t, nil
}
