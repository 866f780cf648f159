package experiments

import (
	"strings"
	"sync"
	"testing"

	"rocksim/internal/gridpin"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// raceIDs deliberately overlaps cells: F8 and F10 share F1's
// default-option runs and T2 its in-order baselines, so a concurrent
// regeneration exercises the singleflight dedup paths, not just the
// worker pool. F12 and F16 add SMT-pair and shared-chip cells, which
// race on pooled multi-threaded instances. The set is kept cheap enough
// to fit the race detector's slowdown.
var raceIDs = []string{"T2", "F1", "F8", "F10", "F12", "F16"}

func renderResult(t *testing.T, r *Runner, id string) string {
	t.Helper()
	res, err := r.Run(id, workload.ScaleTest)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var sb strings.Builder
	res.Fprint(&sb)
	return sb.String()
}

// TestConcurrentRegeneration is the harness's race proof (run under
// `go test -race`): whole experiments regenerate concurrently on one
// shared Runner — racing on the run cache, the worker pool and every
// model the cells construct — and each must render the text pinned in
// cmd/rockbench/testdata/golden.json, which a serial run reproduces
// (TestSweepsSmoke).
func TestConcurrentRegeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pins, err := gridpin.Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	shared := NewRunner()
	shared.SetJobs(4) // force a multi-worker pool even on 1-CPU hosts
	var wg sync.WaitGroup
	wg.Add(len(raceIDs))
	for _, id := range raceIDs {
		go func(id string) {
			defer wg.Done()
			res, err := shared.Run(id, workload.ScaleTest)
			if err != nil {
				t.Errorf("%s: %v", id, err)
				return
			}
			var sb strings.Builder
			res.Fprint(&sb)
			if err := pins.Check(id, []byte(sb.String())); err != nil {
				t.Errorf("concurrent regeneration: %v", err)
			}
		}(id)
	}
	wg.Wait()
}

// TestRunCacheSharesCells asserts the content-addressed cache: two
// experiments requesting the same (kind, program, options) cell get
// the same outcome object, and a changed option gets a distinct cell.
func TestRunCacheSharesCells(t *testing.T) {
	r := NewRunner()
	w, err := workload.Build("chase", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	a, err := r.run(sim.CoreCell(sim.KindSST, w.Program), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.run(sim.CoreCell(sim.KindSST, w.Program), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.SST != b.SST {
		t.Error("identical cells did not share one cached run")
	}
	opts2 := sim.DefaultOptions()
	opts2.SST.DQSize = 8
	c, err := r.run(sim.CoreCell(sim.KindSST, w.Program), opts2)
	if err != nil {
		t.Fatal(err)
	}
	if c.SST == a.SST {
		t.Error("cells with different options collided in the cache")
	}
}
