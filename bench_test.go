// Benchmark harness: one benchmark per reproduced table/figure. Each
// bench regenerates its artifact (at test scale, so the full suite runs
// in minutes) and reports the headline numbers as custom metrics; the
// full-scale numbers in EXPERIMENTS.md come from `go run ./cmd/sstbench
// -scale full`. Simulator speed per core kind is measured end to end by
// cmd/rockbench (sim.mcycles_per_s.<kind>), not here.
package rocksim_test

import (
	"fmt"
	"io"
	"strconv"
	"testing"

	"rocksim"
	"rocksim/internal/experiments"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// benchExperiment regenerates one artifact per iteration and lets the
// caller extract metrics from the result.
func benchExperiment(b *testing.B, id string, metrics func(*experiments.Result, *testing.B)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		res, err := r.Run(id, workload.ScaleTest)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 {
			res.Fprint(io.Discard)
			if metrics != nil {
				metrics(res, b)
			}
		}
	}
}

// geoRow pulls a float from the named column of the geomean row.
func geoCell(res *experiments.Result, col int) float64 {
	rows := res.Tables[0].Rows()
	last := rows[len(rows)-1]
	v, _ := strconv.ParseFloat(last[col], 64)
	return v
}

func BenchmarkTable1Configurations(b *testing.B) {
	benchExperiment(b, "T1", nil)
}

func BenchmarkTable2WorkloadCharacterization(b *testing.B) {
	benchExperiment(b, "T2", nil)
}

func BenchmarkFigure1PerfComparison(b *testing.B) {
	benchExperiment(b, "F1", func(res *experiments.Result, b *testing.B) {
		// Columns: workload, inorder, ooo-small, ooo-large, scout,
		// sst-ea, sst, sst-big.
		b.ReportMetric(geoCell(res, 6), "sst_speedup_vs_inorder")
		b.ReportMetric(geoCell(res, 6)/geoCell(res, 3), "sst_vs_ooo_large")
		b.ReportMetric(geoCell(res, 7)/geoCell(res, 3), "sst_big_vs_ooo_large")
	})
}

func BenchmarkFigure2ModeBreakdown(b *testing.B) {
	benchExperiment(b, "F2", nil)
}

func BenchmarkFigure3DQSweep(b *testing.B) {
	benchExperiment(b, "F3", nil)
}

func BenchmarkFigure4CheckpointSweep(b *testing.B) {
	benchExperiment(b, "F4", nil)
}

func BenchmarkFigure5SSBSweep(b *testing.B) {
	benchExperiment(b, "F5", nil)
}

func BenchmarkFigure6MemLatencySweep(b *testing.B) {
	benchExperiment(b, "F6", nil)
}

func BenchmarkFigure7MLP(b *testing.B) {
	benchExperiment(b, "F7", nil)
}

func BenchmarkFigure8Ablation(b *testing.B) {
	benchExperiment(b, "F8", func(res *experiments.Result, b *testing.B) {
		// Columns: workload, inorder, scout, sst-ea, sst
		b.ReportMetric(geoCell(res, 2), "scout_speedup")
		b.ReportMetric(geoCell(res, 3), "ea_speedup")
		b.ReportMetric(geoCell(res, 4), "sst_speedup")
	})
}

func BenchmarkFigure9CMPScaling(b *testing.B) {
	benchExperiment(b, "F9", nil)
}

func BenchmarkFigure10RollbackAccounting(b *testing.B) {
	benchExperiment(b, "F10", nil)
}

func BenchmarkFigure11BranchSensitivity(b *testing.B) {
	benchExperiment(b, "F11", nil)
}

func BenchmarkFigure12SMTMode(b *testing.B) {
	benchExperiment(b, "F12", nil)
}

func BenchmarkFigure13PolicyAblation(b *testing.B) {
	benchExperiment(b, "F13", nil)
}

func BenchmarkFigure14PrefetchInterplay(b *testing.B) {
	benchExperiment(b, "F14", nil)
}

func BenchmarkFigure15TLBSensitivity(b *testing.B) {
	benchExperiment(b, "F15", nil)
}

func BenchmarkFigure16HTMContention(b *testing.B) {
	benchExperiment(b, "F16", nil)
}

func BenchmarkTable3AreaPowerProxy(b *testing.B) {
	benchExperiment(b, "T3", nil)
}

// BenchmarkEmulator measures the golden functional model's speed.
func BenchmarkEmulator(b *testing.B) {
	w, err := rocksim.BuildWorkload("dense", rocksim.ScaleTest)
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emu, _, err := rocksim.Emulate(w.Program, 100_000_000)
		if err != nil {
			b.Fatal(err)
		}
		insts += emu.Executed
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "siminsts/s")
}

// sanity compile-time checks that the facade exposes the right kinds.
var _ = fmt.Sprintf("%v %v", rocksim.ExecuteAhead, sim.KindSSTEA)
