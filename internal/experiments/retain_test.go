package experiments

import (
	"context"
	"runtime"
	"testing"

	"rocksim/internal/obs"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// TestCachedOutcomeRetainedBytes bounds the heap one cached /v1/run
// cell keeps alive: sst on gcc, served as rocksimd serves it (a fresh
// run registry, the report rendered), under distinct cycle bounds so
// that every request is a miss with its own cache entry, as rockbench's
// run-compute requests are. The outcome's histograms are snapshots that
// keep only the buckets their run filled; full-width copies of the
// 2,049-bucket miss-latency and 4,097-bucket checkpoint-lifetime
// histograms cost about 80 KB per entry.
func TestCachedOutcomeRetainedBytes(t *testing.T) {
	w, err := workload.Build("gcc", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	r.SetJobs(1)
	c := sim.CoreCell(sim.KindSST, w.Program)
	serve := func(maxCycles uint64) {
		opts := sim.DefaultOptions()
		opts.MaxCycles = maxCycles
		opts.Metrics = obs.NewRegistry()
		_, report, err := r.RunCellReport(context.Background(), c, opts)
		if err == nil {
			_, err = report()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// heap returns the live heap once the instance pool, which holds
	// idle simulators through one collection, has dropped them.
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	serve(sim.DefaultMaxCycles) // warm the workload and digest memos
	const n = 8
	before := heap()
	for i := range n {
		serve(sim.DefaultMaxCycles - 1 - uint64(i))
	}
	after := heap()
	runtime.KeepAlive(r)
	per := (int64(after) - int64(before)) / n
	const ceiling = 40 << 10
	t.Logf("retained per cached outcome: %d bytes (ceiling %d)", per, ceiling)
	if per > ceiling {
		t.Errorf("one cached outcome retains %d bytes, over the %d-byte ceiling", per, ceiling)
	}
}
