package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rocksim/internal/cpu"
	"rocksim/internal/sim"
)

// boundedCell returns the cell every run-cache policy test requests and
// the options of its i-th distinct variant: each cycle bound is its own
// cache key, and the injected backends never simulate it.
func boundedCell(t *testing.T) (sim.Cell, func(i int) sim.Options) {
	c := sim.CoreCell(sim.KindSST, testSpec(t).Program)
	return c, func(i int) sim.Options {
		o := sim.DefaultOptions()
		o.MaxCycles = 1000 + uint64(i)
		return o
	}
}

// countingBackend computes a cell as its cycle bound, counting calls.
func countingBackend(r *Runner) *atomic.Int64 {
	var computes atomic.Int64
	r.SetComputeBackend(func(_ context.Context, _ sim.Cell, o sim.Options) (sim.Outcome, error) {
		computes.Add(1)
		return sim.Outcome{CellStats: sim.CellStats{Cycles: o.MaxCycles}}, nil
	})
	return &computes
}

// runCounted runs cell c under o and reports how many computes it
// started.
func runCounted(t *testing.T, r *Runner, computes *atomic.Int64, c sim.Cell, o sim.Options) int64 {
	t.Helper()
	before := computes.Load()
	out, err := r.run(c, o)
	if err != nil || out.Cycles != o.MaxCycles {
		t.Fatalf("max_cycles %d: outcome %d, err %v", o.MaxCycles, out.Cycles, err)
	}
	return computes.Load() - before
}

// TestRunCacheBound: after runCacheCap+k distinct cells the cache holds
// runCacheCap of them, having evicted the k least recently used.
func TestRunCacheBound(t *testing.T) {
	r := NewRunner()
	computes := countingBackend(r)
	c, variant := boundedCell(t)
	const k = 40
	for i := range runCacheCap + k {
		runCounted(t, r, computes, c, variant(i))
	}
	if entries, evictions := r.CacheSize(); entries != runCacheCap || evictions != k {
		t.Fatalf("entries %d evictions %d, want %d/%d", entries, evictions, runCacheCap, k)
	}
	if n := runCounted(t, r, computes, c, variant(runCacheCap+k-1)); n != 0 {
		t.Errorf("newest cell recomputed")
	}
	if n := runCounted(t, r, computes, c, variant(k)); n != 0 {
		t.Errorf("oldest kept cell recomputed")
	}
	if n := runCounted(t, r, computes, c, variant(k-1)); n != 1 {
		t.Errorf("newest evicted cell computed %d times, want 1", n)
	}
	if entries, evictions := r.CacheSize(); entries != runCacheCap || evictions != k+1 {
		t.Errorf("after a recompute: entries %d evictions %d, want %d/%d", entries, evictions, runCacheCap, k+1)
	}
}

// TestRunCacheHitRefreshesRecency: a hit makes the least recently used
// entry the most recent, so it outlives runCacheCap-1 further inserts
// that would otherwise have evicted it first, and the runCacheCap-th
// evicts it.
func TestRunCacheHitRefreshesRecency(t *testing.T) {
	r := NewRunner()
	computes := countingBackend(r)
	c, variant := boundedCell(t)
	for i := range runCacheCap {
		runCounted(t, r, computes, c, variant(i))
	}
	if n := runCounted(t, r, computes, c, variant(0)); n != 0 {
		t.Fatal("cell 0 missed in a full, unevicted cache")
	}
	next := runCacheCap
	for ; next < 2*runCacheCap-1; next++ {
		runCounted(t, r, computes, c, variant(next))
	}
	if _, evictions := r.CacheSize(); evictions != runCacheCap-1 {
		t.Fatalf("evictions %d, want %d", evictions, runCacheCap-1)
	}
	r.mu.Lock()
	_, kept := r.cache[CellKey(c, variant(0))]
	_, lost := r.cache[CellKey(c, variant(1))]
	r.mu.Unlock()
	if !kept || lost {
		t.Fatalf("after %d inserts: touched cell kept=%v, untouched cell 1 kept=%v; want true/false", runCacheCap-1, kept, lost)
	}
	runCounted(t, r, computes, c, variant(next))
	if n := runCounted(t, r, computes, c, variant(0)); n != 1 {
		t.Errorf("touched cell survived %d further inserts in a cache of %d", runCacheCap, runCacheCap)
	}
}

// TestRunCacheKeepsInFlightEntries: a cell whose compute is in flight
// survives a flood of settled inserts many times the bound, and every
// request for it, before and during the flood, shares its one compute.
func TestRunCacheKeepsInFlightEntries(t *testing.T) {
	r := NewRunner()
	c, variant := boundedCell(t)
	const flood = 3 * runCacheCap
	slow := variant(flood)
	started, release := make(chan struct{}), make(chan struct{})
	var slowComputes atomic.Int64
	r.SetComputeBackend(func(_ context.Context, _ sim.Cell, o sim.Options) (sim.Outcome, error) {
		if o.MaxCycles == slow.MaxCycles {
			if slowComputes.Add(1) == 1 {
				close(started)
			}
			<-release
		}
		return sim.Outcome{CellStats: sim.CellStats{Cycles: o.MaxCycles}}, nil
	})

	const joiners = 8
	var wg sync.WaitGroup
	outs := make([]uint64, joiners)
	request := func(i int) {
		defer wg.Done()
		out, err := r.run(c, slow)
		if err != nil {
			t.Error(err)
		}
		outs[i] = out.Cycles
	}
	wg.Add(1)
	go request(0)
	<-started
	for i := 1; i < joiners; i++ {
		wg.Add(1)
		go request(i)
	}
	for i := range flood {
		if _, err := r.run(c, variant(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	e, ok := r.cache[CellKey(c, slow)]
	inFlight := ok && e.elem == nil
	r.mu.Unlock()
	if !inFlight {
		t.Fatal("the in-flight cell left the cache during the flood")
	}
	close(release)
	wg.Wait()
	if n := slowComputes.Load(); n != 1 {
		t.Errorf("in-flight cell computed %d times, want 1", n)
	}
	for i, cyc := range outs {
		if cyc != slow.MaxCycles {
			t.Errorf("request %d: outcome %d, want %d", i, cyc, slow.MaxCycles)
		}
	}
	if entries, evictions := r.CacheSize(); entries != runCacheCap || evictions != 2*runCacheCap+1 {
		t.Errorf("entries %d evictions %d, want %d/%d", entries, evictions, runCacheCap, 2*runCacheCap+1)
	}
	if _, err := r.run(c, slow); err != nil || slowComputes.Load() != 1 {
		t.Errorf("settled cell not kept as most recently used: err %v, computes %d", err, slowComputes.Load())
	}
}

// TestDeadlineErrorNotCached: a compute that fails on its wall-clock
// deadline hands its error to every request already joined on it, then
// leaves the cache, so the next request computes afresh.
func TestDeadlineErrorNotCached(t *testing.T) {
	r := NewRunner()
	c, variant := boundedCell(t)
	o := variant(0)
	release := make(chan struct{})
	var computes atomic.Int64
	r.SetComputeBackend(func(_ context.Context, _ sim.Cell, o sim.Options) (sim.Outcome, error) {
		if computes.Add(1) == 1 {
			<-release
			return sim.Outcome{}, fmt.Errorf("cell: %w", cpu.ErrDeadline)
		}
		return sim.Outcome{CellStats: sim.CellStats{Cycles: o.MaxCycles}}, nil
	})

	const n = 4
	errs := make(chan error, n)
	for range n {
		go func() {
			_, err := r.run(c, o)
			errs <- err
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if hits, misses := r.CacheStats(); hits == n-1 && misses == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("requests never joined the in-flight compute")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for range n {
		if err := <-errs; !errors.Is(err, cpu.ErrDeadline) {
			t.Errorf("joined request: err %v, want the deadline error", err)
		}
	}
	if entries, _ := r.CacheSize(); entries != 0 {
		t.Errorf("cache holds %d entries after a deadline failure, want 0", entries)
	}
	out, err := r.run(c, o)
	if err != nil || out.Cycles != o.MaxCycles {
		t.Fatalf("request after the deadline failure: outcome %d, err %v", out.Cycles, err)
	}
	if got := computes.Load(); got != 2 {
		t.Errorf("compute ran %d times, want 2", got)
	}
}

// TestDeterministicErrorsStayCached: a cell that fails for a reason of
// its own — cycle limit, livelock, a leak verdict, a panic after its
// retry — fails the same way on every request, so its error is cached.
func TestDeterministicErrorsStayCached(t *testing.T) {
	c, variant := boundedCell(t)
	for _, tc := range []struct {
		err      error
		computes int64
	}{
		{fmt.Errorf("cell: %w", cpu.ErrCycleLimit), 1},
		{fmt.Errorf("cell: %w", cpu.ErrLivelock), 1},
		{fmt.Errorf("cell: %w", sim.ErrTransientLeak), 1},
		{&PanicError{Value: "boom"}, 2},
	} {
		r := NewRunner()
		var computes atomic.Int64
		r.SetComputeBackend(func(context.Context, sim.Cell, sim.Options) (sim.Outcome, error) {
			computes.Add(1)
			return sim.Outcome{}, tc.err
		})
		for i := range 2 {
			if _, err := r.run(c, variant(0)); err != tc.err {
				t.Errorf("%v: request %d: err %v", tc.err, i, err)
			}
		}
		if got := computes.Load(); got != tc.computes {
			t.Errorf("%v: compute ran %d times, want %d", tc.err, got, tc.computes)
		}
	}
}

// TestRawPanicSettlesEntry: a compute backend that panics without
// recovering settles its cache entry all the same. The requester that
// computes and every requester joined on it get a *PanicError after the
// one retry, instead of blocking on an entry nothing will ever settle;
// the error stays cached like any other panic after its retry.
func TestRawPanicSettlesEntry(t *testing.T) {
	c, variant := boundedCell(t)
	const joiners = 4
	r := NewRunner()
	r.SetJobs(joiners + 1)
	var computes atomic.Int64
	release := make(chan struct{})
	r.SetComputeBackend(func(context.Context, sim.Cell, sim.Options) (sim.Outcome, error) {
		computes.Add(1)
		<-release
		panic("raw backend panic")
	})
	errs := make(chan error, joiners+1)
	for range joiners + 1 {
		go func() {
			_, err := r.RunCell(c, variant(0))
			errs <- err
		}()
	}
	// Release the compute once every requester has reached the entry:
	// one computes (a miss), the rest join it (hits).
	for {
		if hits, misses := r.CacheStats(); hits+misses == joiners+1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	timeout := time.After(10 * time.Second)
	for i := range joiners + 1 {
		select {
		case err := <-errs:
			var pe *PanicError
			if !errors.As(err, &pe) || len(pe.Stack) == 0 {
				t.Errorf("requester %d: err %v, want a *PanicError with its stack", i, err)
			}
		case <-timeout:
			t.Fatalf("%d of %d requesters still blocked: the panicking compute left its entry unsettled", joiners+1-i, joiners+1)
		}
	}
	if got := computes.Load(); got != 2 {
		t.Errorf("compute ran %d times, want 2 (one retry)", got)
	}
	if _, err := r.RunCell(c, variant(0)); err == nil || computes.Load() != 2 {
		t.Errorf("after settling: err %v, %d computes; want the cached *PanicError and no new compute", err, computes.Load())
	}
}
