package experiments

import "testing"

// TestInferParallelDifferential is the worker-pool determinism gate for the
// inference experiments: every table that fans per-profile cells across
// Workers — embedding each profile's SizeResult estimates, census
// counts, and policy verdicts — must render byte-identical at 1 and 8
// workers. Each cell owns its seeded switch, engine, and RNG, so any
// divergence means shared state leaked between cells. CI runs this under
// the race detector, where the 8-worker pass also shakes out data races.
func TestInferParallelDifferential(t *testing.T) {
	old := Workers
	defer func() { Workers = old }()

	type table struct {
		name string
		run  func() *Table
	}
	tables := []table{
		{"SizeAccuracy", SizeAccuracy},
		{"PolicyAccuracy", PolicyAccuracy},
		{"ReportedVsInferred", ReportedVsInferred},
		{"Table1", Table1},
	}
	// Subtests stay sequential: they all flip the shared Workers knob.
	for _, tb := range tables {
		tb := tb
		t.Run(tb.name, func(t *testing.T) {
			Workers = 1
			serial := tb.run().String()
			Workers = 8
			parallel := tb.run().String()
			if serial != parallel {
				t.Errorf("%s diverges between 1 and 8 workers:\nserial:\n%s\nparallel:\n%s",
					tb.name, serial, parallel)
			}
		})
	}
}
