package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"

	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// quietPool makes sync.Pool keep every Put where the next Get finds it,
// for the rest of the test: it pauses GC, which may drop idle instances,
// and pins the test to one P, because a Put parks in a per-P slot that a
// Get on another P cannot reach. These tests are about reuse behavior,
// not GC or scheduling policy. Only the race detector's random Put drops
// remain.
func quietPool(t *testing.T) {
	gc := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
}

// TestPoolReusesInstances: distinct cache cells that share a machine
// shape must be served by one recycled simulator, not one construction
// each.
func TestPoolReusesInstances(t *testing.T) {
	quietPool(t)
	r := NewRunner()
	r.pool = new(simPool) // private: the process-wide pool holds other tests' instances
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
	if built < 1 || built+reused != 4 {
		t.Errorf("4 runs took %d builds and %d reuses", built, reused)
	}
	// The race detector makes sync.Pool drop Puts at random, so exact
	// reuse holds only without it.
	if !raceDetectorOn && (built != 1 || reused != 3) {
		t.Errorf("want 1 instance built and 3 pooled reuses for one shape, got %d and %d", built, reused)
	}

	// A different shape must not share instances with the first.
	other := opts
	other.SST.DQSize *= 2
	if _, err := r.RunCell(sim.CoreCell(sim.KindSST, spec.Program), other); err != nil {
		t.Fatal(err)
	}
	reused2, built2 := r.PoolStats()
	if built2 != built+1 || reused2 != reused {
		t.Errorf("want a second instance for a second shape: built %d->%d, reused %d->%d", built, built2, reused, reused2)
	}

	// A cache hit must not touch the pool at all.
	if _, err := r.RunCell(sim.CoreCell(sim.KindSST, spec.Program), other); err != nil {
		t.Fatal(err)
	}
	if r3, b3 := r.PoolStats(); r3 != reused2 || b3 != built2 {
		t.Errorf("cache hit touched the pool: reused %d->%d, built %d->%d", reused2, r3, built2, b3)
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
	quietPool(t)
	r := NewRunner()
	r.pool = new(simPool) // private: the process-wide pool holds other tests' instances
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
	reused, built := r.PoolStats()
	if built+reused != 2 || !raceDetectorOn && built != 1 {
		t.Errorf("want the errored instance recycled (1 built, 1 reused), got %d built, %d reused", built, reused)
	}
}

// TestPoolBoundsShapes: the pool keeps instances for at most maxShapes
// shapes, evicting the least recently used, so a grid touching many
// shapes once each does not hold every machine it ever built.
func TestPoolBoundsShapes(t *testing.T) {
	quietPool(t)
	r := NewRunner()
	r.pool = new(simPool) // private: the process-wide pool holds other tests' instances
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

// TestPoolOutlivesRunner: the instance pool belongs to the process, and
// a single-core instance serves every kind, so a new Runner's cell of
// another kind runs on the machine a finished Runner left idle.
func TestPoolOutlivesRunner(t *testing.T) {
	quietPool(t)
	if NewRunner().pool != NewRunner().pool {
		t.Fatal("two Runners draw from different pools")
	}
	shared := new(simPool)
	spec := testSpec(t)
	opts := sim.DefaultOptions()
	first := NewRunner()
	first.pool = shared
	if _, err := first.RunCell(sim.CoreCell(sim.KindSST, spec.Program), opts); err != nil {
		t.Fatal(err)
	}
	second := NewRunner()
	second.pool = shared
	if _, err := second.RunCell(sim.CoreCell(sim.KindInOrder, spec.Program), opts); err != nil {
		t.Fatal(err)
	}
	reused, built := second.PoolStats()
	if reused+built != 1 || !raceDetectorOn && reused != 1 {
		t.Errorf("the second Runner's in-order cell took %d builds and %d reuses; want the first Runner's idle machine", built, reused)
	}
	if r1, b1 := first.PoolStats(); r1 != 0 || b1 != 1 {
		t.Errorf("the first Runner's stats moved with the second's traffic: %d reused, %d built", r1, b1)
	}
}
