package experiments

import (
	"runtime/debug"
	"testing"

	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// TestPoolReusesInstances: distinct cache cells that share a machine
// shape must be served by one recycled simulator, not one construction
// each. GC is paused for the assertion window — sync.Pool is allowed to
// drop idle instances at collection, and this test is about reuse
// behavior, not GC policy.
func TestPoolReusesInstances(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := NewRunner()
	r.SetJobs(1)
	spec, err := workload.Build("oltp", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	// Vary a per-run option so every request is a cache MISS (distinct
	// fingerprint) with an identical pool shape.
	for i := 0; i < 4; i++ {
		opts.MaxCycles = uint64(100_000_000 + i)
		if _, err := r.RunCell(sim.CoreCell(sim.KindSST, spec.Program), opts); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := r.CacheStats()
	if hits != 0 || misses != 4 {
		t.Fatalf("want 4 cache misses and 0 hits, got %d misses, %d hits", misses, hits)
	}
	reused, built := r.PoolStats()
	if built != 1 {
		t.Errorf("want 1 instance built for one shape, got %d", built)
	}
	if reused != 3 {
		t.Errorf("want 3 pooled reuses, got %d", reused)
	}

	// A different shape must not share instances with the first.
	other := opts
	other.SST.DQSize *= 2
	if _, err := r.RunCell(sim.CoreCell(sim.KindSST, spec.Program), other); err != nil {
		t.Fatal(err)
	}
	if _, built = r.PoolStats(); built != 2 {
		t.Errorf("want a second instance for a second shape, got %d built", built)
	}

	// A cache hit must not touch the pool at all.
	reused, _ = r.PoolStats()
	if _, err := r.RunCell(sim.CoreCell(sim.KindSST, spec.Program), other); err != nil {
		t.Fatal(err)
	}
	if r2, b2 := r.PoolStats(); r2 != reused || b2 != 2 {
		t.Errorf("cache hit touched the pool: reused %d->%d, built 2->%d", reused, r2, b2)
	}
}

// TestPoolReusesAfterWatchdogError: a cell that errors cleanly (a
// cycle-limit trip) must return its instance to the pool, and the next
// cell on that shape must compute on it correctly — Reset clears a
// half-finished run completely. (A cell that PANICS, by contrast, never
// returns its instance: compute's put sits after Run returns, so a
// panic unwinds past it and the corrupt machine is garbage-collected.
// The sim-level differential tests cover the reuse semantics;
// the panicking compute seam here bypasses the pool, so that drop
// path is enforced structurally rather than end to end.)
func TestPoolReusesAfterWatchdogError(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := NewRunner()
	r.SetJobs(1)
	spec, err := workload.Build("oltp", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	opts.MaxCycles = 10 // trips immediately
	if _, err := r.RunCell(sim.CoreCell(sim.KindSST, spec.Program), opts); err == nil {
		t.Fatal("want a cycle-limit error")
	}
	opts.MaxCycles = 0
	out, err := r.RunCell(sim.CoreCell(sim.KindSST, spec.Program), opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sim.Run(sim.KindSST, spec.Program, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cycles != fresh.Cycles || out.Retired != fresh.Retired || out.Regs != fresh.Regs {
		t.Errorf("run after watchdog error diverges from fresh: pooled %d/%d, fresh %d/%d",
			out.Cycles, out.Retired, fresh.Cycles, fresh.Retired)
	}
	if reused, built := r.PoolStats(); built != 1 || reused != 1 {
		t.Errorf("want the errored instance recycled (1 built, 1 reused), got %d built, %d reused", built, reused)
	}
}

// TestPoolBoundsShapes: the pool keeps instances for at most maxShapes
// shapes, evicting the least recently used, so a grid touching many
// shapes once each does not hold every machine it ever built. GC is
// paused, as above.
func TestPoolBoundsShapes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := NewRunner()
	r.SetJobs(1)
	spec := testSpec(t)
	opts := sim.DefaultOptions()
	for i := 0; i <= maxShapes; i++ {
		o := opts
		o.SST.DQSize = 8 + i // a distinct shape each
		if _, err := r.RunCell(sim.CoreCell(sim.KindSST, spec.Program), o); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.pool.shapes); n != maxShapes {
		t.Fatalf("%d pooled shapes after %d, want the bound %d", n, maxShapes+1, maxShapes)
	}
	// The first shape was evicted and is rebuilt; the newest is reused.
	// MaxCycles makes each a cache miss (a cycle-limit error, after which
	// the instance still returns to the pool).
	rerun := func(dq int) (reused, built uint64) {
		o := opts
		o.SST.DQSize, o.MaxCycles = dq, 1
		r.RunCell(sim.CoreCell(sim.KindSST, spec.Program), o)
		return r.PoolStats()
	}
	if _, built := rerun(8); built != maxShapes+2 {
		t.Errorf("%d built; want the evicted shape rebuilt (%d)", built, maxShapes+2)
	}
	// Under the race detector sync.Pool drops a random share of Puts.
	if reused, _ := rerun(8 + maxShapes); reused != 1 && !raceDetectorOn {
		t.Errorf("%d reused; want the newest shape's instance reused once", reused)
	}
}
