package experiments

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rocksim/internal/cpu"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// TestForEachErrsIsolatesPanics: a panicking cell degrades to an
// attributed *PanicError; every other cell still runs to completion.
func TestForEachErrsIsolatesPanics(t *testing.T) {
	r := NewRunner()
	var ran [4]atomic.Int32
	errs := r.forEachErrs(4, func(i int) error {
		ran[i].Add(1)
		if i == 2 {
			panic("injected model crash")
		}
		return nil
	})
	for i, err := range errs {
		if i == 2 {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("cell 2: want *PanicError, got %v", err)
			}
			if !strings.Contains(err.Error(), "cell 2") {
				t.Errorf("panic error not attributed to its cell: %v", err)
			}
			if len(pe.Stack) == 0 {
				t.Error("recovered panic lost its stack")
			}
			continue
		}
		if err != nil {
			t.Errorf("cell %d: unexpected error %v", i, err)
		}
		if ran[i].Load() != 1 {
			t.Errorf("cell %d ran %d times, want 1", i, ran[i].Load())
		}
	}
	// The deterministic panic must have been retried exactly once.
	if got := ran[2].Load(); got != 2 {
		t.Errorf("panicking cell ran %d times, want 2 (one retry)", got)
	}
}

// TestForEachErrsRetriesTransientPanic: a cell that crashes once and
// then succeeds is healed by the single bounded retry.
func TestForEachErrsRetriesTransientPanic(t *testing.T) {
	r := NewRunner()
	var calls atomic.Int32
	errs := r.forEachErrs(1, func(i int) error {
		if calls.Add(1) == 1 {
			panic("transient")
		}
		return nil
	})
	if errs[0] != nil {
		t.Fatalf("transient panic not healed by retry: %v", errs[0])
	}
	if calls.Load() != 2 {
		t.Errorf("job ran %d times, want 2", calls.Load())
	}
}

// TestErrCellClassification maps each failure class to its table tag.
func TestErrCellClassification(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{cpu.ErrLivelock, "ERR(livelock)"},
		{cpu.ErrCycleLimit, "ERR(cycle-limit)"},
		{cpu.ErrDeadline, "ERR(deadline)"},
		{&PanicError{Value: "boom"}, "ERR(panic)"},
		{errors.New("other"), "ERR(run-failed)"},
	}
	for _, c := range cases {
		if got := errCell(c.err); got != c.want {
			t.Errorf("errCell(%v) = %q, want %q", c.err, got, c.want)
		}
	}
	// A failure computed on a remote shard renders as its origin would.
	for _, class := range []string{ErrClassLivelock, ErrClassCycleLimit, ErrClassDeadline,
		ErrClassPanic, ErrClassRunFailed, ErrClassLeak} {
		if got, want := errCell(NewRemoteError(class, "remote")), "ERR("+class+")"; got != want {
			t.Errorf("errCell(remote %s) = %q, want %q", class, got, want)
		}
	}
}

// TestCollectErrsDeduplicates: a shared cache entry surfacing one
// failure through many cells reports it once.
func TestCollectErrsDeduplicates(t *testing.T) {
	shared := errors.New("same failure")
	got := collectErrs([]error{nil, shared, shared, errors.New("other"), nil})
	if len(got) != 2 {
		t.Fatalf("collectErrs kept %d lines, want 2: %v", len(got), got)
	}
}

// TestBaseOptionsThreadThroughExperiment: SetBaseOptions is honored by
// the drivers — an impossible wall-clock deadline degrades every cell
// to ERR(deadline) while the experiment itself still renders a complete
// table and attributes the failures.
func TestBaseOptionsThreadThroughExperiment(t *testing.T) {
	r := NewRunner()
	opts := sim.DefaultOptions()
	opts.Timeout = time.Nanosecond
	r.SetBaseOptions(opts)

	res, err := r.PerfComparison(workload.ScaleTest)
	if err != nil {
		t.Fatalf("experiment must degrade, not fail: %v", err)
	}
	if len(res.Errs) == 0 {
		t.Fatal("no attributed errors despite 1ns deadline on every cell")
	}
	var b strings.Builder
	res.Fprint(&b)
	out := b.String()
	if !strings.Contains(out, "ERR(deadline)") {
		t.Errorf("table lacks ERR(deadline) cells:\n%s", out)
	}
	if !strings.Contains(out, "ERR: ") {
		t.Errorf("report lacks attributed ERR lines:\n%s", out)
	}
}

// TestBaseOptionsDefault: without an override, BaseOptions is exactly
// sim.DefaultOptions (same fingerprint → same run-cache keys).
func TestBaseOptionsDefault(t *testing.T) {
	r := NewRunner()
	if got, want := r.BaseOptions().Fingerprint(), sim.DefaultOptions().Fingerprint(); got != want {
		t.Errorf("BaseOptions fingerprint %q, want DefaultOptions %q", got, want)
	}
}
