package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rocksim/internal/gridpin"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

func fscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

// TestConfigTable checks the static tables render with the expected rows.
func TestConfigTable(t *testing.T) {
	res := ConfigTable()
	if res.ID != "T1" || len(res.Tables) != 2 {
		t.Fatalf("shape: %s, %d tables", res.ID, len(res.Tables))
	}
	if res.Tables[0].NumRows() != 7 {
		t.Errorf("machine rows = %d", res.Tables[0].NumRows())
	}
	var sb strings.Builder
	res.Fprint(&sb)
	for _, want := range []string{"sst", "ooo-large", "in-order", "DRAM"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestAreaPowerProxy(t *testing.T) {
	res := AreaPowerProxy()
	rows := res.Tables[0].Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	area := map[string]string{}
	for _, r := range rows {
		area[r[0]] = r[3]
	}
	// The paper's qualitative claim: sst is close to in-order and far
	// below the big OOO core in both area and power.
	parse := func(s string) float64 {
		var v float64
		if _, err := sscan(s, &v); err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	if !(parse(area["sst"]) < parse(area["ooo-small"]) &&
		parse(area["ooo-small"]) < parse(area["ooo-large"])) {
		t.Errorf("area ordering violated: %v", area)
	}
	if parse(area["sst"]) > 2*parse(area["in-order"]) {
		t.Errorf("sst area proxy too large: %v", area)
	}
}

func sscan(s string, v *float64) (int, error) {
	return fscan(s, v)
}

// TestHeadlineExperimentTestScale runs F1 at test scale and checks the
// qualitative shape: every speculative machine beats in-order on the
// commercial geomean, and SST is at least competitive with the large OOO.
func TestHeadlineExperimentTestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceDetectorOn {
		t.Skip("numeric-shape check; covered by tier1, and F1 runs under race in TestConcurrentRegeneration")
	}
	r := NewRunner()
	res, err := r.PerfComparison(workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows()
	geo := rows[len(rows)-1]
	if geo[0] != "geomean" {
		t.Fatalf("last row = %v", geo)
	}
	var inorder, oooL, sst float64
	fscan(geo[1], &inorder)
	fscan(geo[3], &oooL)
	fscan(geo[6], &sst)
	if inorder != 1.0 {
		t.Errorf("inorder geomean = %f", inorder)
	}
	if sst <= 1.0 {
		t.Errorf("sst geomean %f not above in-order", sst)
	}
	if sst < 0.8*oooL {
		t.Errorf("sst geomean %f far below ooo-large %f", sst, oooL)
	}
}

// TestSweepsSmoke runs every experiment at test scale and requires its
// text to match the digest pinned in the grid map of
// cmd/rockbench/testdata/golden.json, so any change to simulated output
// or to how a result renders fails tier 1. The experiments share one
// Runner, and no cell may be computed twice: the run cache's bound
// (runCacheCap) must hold every cell the grid reuses. Under the race
// detector the full sweep would take tens of minutes, so a reduced set
// covering each driver family stands in; the concurrency proof under
// race is TestConcurrentRegeneration, and the full sweep runs in tier1.
func TestSweepsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pins, err := gridpin.Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	ids := All
	if raceDetectorOn {
		ids = []string{"T1", "F5", "F12", "F16", "T3"}
	}
	r := NewRunner()
	var mu sync.Mutex
	computed := make(map[string]int)
	r.SetComputeBackend(func(ctx context.Context, c sim.Cell, o sim.Options) (sim.Outcome, error) {
		mu.Lock()
		computed[CellKey(c, o)]++
		mu.Unlock()
		return r.compute(ctx, c, o)
	})
	for _, id := range ids {
		if err := pins.Check(id, []byte(renderResult(t, r, id))); err != nil {
			t.Error(err)
		}
	}
	for ck, n := range computed {
		if n > 1 {
			t.Errorf("cell %s computed %d times: the run cache (%d cells) evicted it before its reuse", ck, n, runCacheCap)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := NewRunner().Run("F99", workload.ScaleTest); err == nil {
		t.Error("accepted unknown experiment")
	}
}
