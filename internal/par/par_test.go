package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 8, n + 3} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				hits := make([]atomic.Int32, n)
				For(n, workers, func(i int) { hits[i].Add(1) })
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("index %d ran %d times, want 1", i, got)
					}
				}
			})
		}
	}
}

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ workers, n, want int }{
		{0, 1000, min(procs, 1000)},
		{-5, 1000, min(procs, 1000)},
		{3, 1000, 3},
		{8, 2, 2},
		{8, 0, 1},
		{1, 7, 1},
	} {
		if got := Workers(c.workers, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// panicValue is a non-string value, so the test can tell the original
// panic value from a re-wrapped one.
type panicValue struct{ i int }

func TestForPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			var ran atomic.Int32
			got := func() (v any) {
				defer func() { v = recover() }()
				For(100, workers, func(i int) {
					ran.Add(1)
					if i == 13 || i == 40 {
						panic(panicValue{i})
					}
				})
				return nil
			}()
			// Index 13 is claimed before 40 on every path, so it is the
			// panic that reaches the caller.
			if got != (panicValue{13}) {
				t.Fatalf("recovered %#v, want panicValue{13}", got)
			}
			if workers == 1 && ran.Load() != 14 {
				t.Fatalf("serial path ran %d jobs, want 14 (stop at the panic)", ran.Load())
			}
			// Workers have returned before For re-raises; allow the
			// runtime a moment to retire their goroutines.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("goroutines = %d after For, want baseline %d", n, base)
			}
		})
	}
}

func TestForSerialPathAllocatesNothing(t *testing.T) {
	sum := 0
	fn := func(i int) { sum += i }
	if allocs := testing.AllocsPerRun(100, func() { For(64, 1, fn) }); allocs != 0 {
		t.Fatalf("serial For allocated %v times per run, want 0", allocs)
	}
}
