package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// testSpec returns a small real workload so cacheKey has a genuine
// program image to hash; the injected computeFn never simulates it.
func testSpec(t *testing.T) *workload.Spec {
	t.Helper()
	w, err := workload.Build("chase", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDeterministicPanicBoundedRetry drives many concurrent requests
// for one cell whose compute always crashes and proves the documented
// contract end to end: the compute runs exactly twice (the one bounded
// retry inside the singleflight fill — the pool-level retry must hit
// the cache, not recompute), every sharer receives the same attributed
// *PanicError, and the cell renders as ERR(panic).
func TestDeterministicPanicBoundedRetry(t *testing.T) {
	r := NewRunner()
	r.SetJobs(4)
	spec := testSpec(t)
	var computes atomic.Int64
	r.computeFn = func(_ context.Context, c sim.Cell, o sim.Options) (sim.Outcome, error) {
		computes.Add(1)
		// Mimic compute's contract: panics are recovered and attributed
		// before they reach the cache fill.
		return sim.Outcome{}, &PanicError{Value: "boom", Stack: []byte("stack")}
	}

	const n = 8
	outs := make([]error, n)
	errs := r.forEachErrs(n, func(i int) error {
		_, err := r.run(sim.CoreCell(sim.KindSST, spec.Program), sim.DefaultOptions())
		outs[i] = err
		return err
	})
	if got := computes.Load(); got != 2 {
		t.Fatalf("compute ran %d times, want exactly 2 (one bounded retry)", got)
	}
	var first *PanicError
	for i, err := range errs {
		if err == nil {
			t.Fatalf("request %d: no error", i)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("request %d: error %v is not a *PanicError", i, err)
		}
		if first == nil {
			first = pe
		} else if pe != first {
			t.Errorf("request %d: got a distinct *PanicError instance; singleflight must share one", i)
		}
		if errCell(err) != "ERR(panic)" {
			t.Errorf("request %d: errCell = %q, want ERR(panic)", i, errCell(err))
		}
	}
	// 8 pool jobs, each retried once on the panic error: 16 cache
	// requests, of which exactly one computed.
	hits, misses := r.CacheStats()
	if misses != 1 || hits != 15 {
		t.Errorf("cache stats hits=%d misses=%d, want 15/1", hits, misses)
	}
}

// TestTransientPanicRecovers: a crash on the first compute only is
// retried once and succeeds for every sharer.
func TestTransientPanicRecovers(t *testing.T) {
	r := NewRunner()
	spec := testSpec(t)
	var computes atomic.Int64
	r.computeFn = func(_ context.Context, c sim.Cell, o sim.Options) (sim.Outcome, error) {
		if computes.Add(1) == 1 {
			return sim.Outcome{}, &PanicError{Value: "transient", Stack: []byte("stack")}
		}
		return sim.Outcome{CellStats: sim.CellStats{Cycles: 1234}}, nil
	}
	errs := r.forEachErrs(4, func(i int) error {
		out, err := r.run(sim.CoreCell(sim.KindSST, spec.Program), sim.DefaultOptions())
		if err == nil && out.Cycles != 1234 {
			t.Errorf("request %d: wrong cached outcome %d", i, out.Cycles)
		}
		return err
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	if got := computes.Load(); got != 2 {
		t.Errorf("compute ran %d times, want 2", got)
	}
}

// TestRunJobBoundedRetry covers the pool layer itself: a job that
// panics (not just returns an error) is recovered into an attributed
// *PanicError carrying the stack, and attempted exactly twice.
func TestRunJobBoundedRetry(t *testing.T) {
	attempts := 0
	err := runJob(3, func(i int) error {
		attempts++
		panic("job crash")
	})
	if attempts != 2 {
		t.Fatalf("job attempted %d times, want 2", attempts)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PanicError", err)
	}
	if pe.Value != "job crash" || len(pe.Stack) == 0 {
		t.Errorf("panic not attributed: value=%v stack=%d bytes", pe.Value, len(pe.Stack))
	}
	if !strings.Contains(err.Error(), "cell 3") {
		t.Errorf("error %q does not name the cell", err)
	}
}

// TestRunCell exercises the exported cell entry point against a real
// simulation: the result matches sim.Run exactly and the second request
// is a cache hit.
func TestRunCell(t *testing.T) {
	r := NewRunner()
	spec := testSpec(t)
	opts := sim.DefaultOptions()
	want, err := sim.Run(sim.KindInOrder, spec.Program, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := r.RunCell(sim.CoreCell(sim.KindInOrder, spec.Program), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.Retired != want.Retired {
			t.Fatalf("request %d: cycles/retired %d/%d, want %d/%d",
				i, got.Cycles, got.Retired, want.Cycles, want.Retired)
		}
	}
	hits, misses := r.CacheStats()
	if misses != 1 || hits != 1 {
		t.Errorf("cache stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}
