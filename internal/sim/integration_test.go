package sim

import (
	"testing"

	"rocksim/internal/core"
	"rocksim/internal/workload"
)

// TestWorkloadsAllCoresEquivalent is the heavyweight integration check:
// every built-in workload (test scale) runs on every core model and must
// retire exactly the golden instruction count with the golden memory
// image. Cross-model performance invariants are asserted alongside.
func TestWorkloadsAllCoresEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	specs, err := workload.BuildAll(workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	for _, w := range specs {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			emu, goldMem, err := RunEmulator(w.Program, 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			cycles := map[Kind]uint64{}
			for _, k := range Kinds {
				out, err := Run(k, w.Program, opts)
				if err != nil {
					t.Fatalf("%v: %v", k, err)
				}
				if out.Retired != emu.Executed {
					t.Errorf("%v: retired %d, golden %d", k, out.Retired, emu.Executed)
				}
				if !out.Mem.Equal(goldMem) {
					t.Errorf("%v: memory image differs", k)
				}
				cycles[k] = out.Cycles

				if s := out.SST; s != nil {
					// Conservation: every taken checkpoint is either
					// committed or rolled back (none leak).
					if s.CheckpointsTaken != s.EpochCommits+rollbackSum(s) {
						// Rollbacks discard whole suffixes of epochs, so
						// the identity is an inequality:
						// commits + rollbacks <= taken <= commits + rollbacks*maxEpochs.
						if s.EpochCommits+rollbackSum(s) > s.CheckpointsTaken {
							t.Errorf("%v: commits+rollbacks (%d+%d) exceed checkpoints taken (%d)",
								k, s.EpochCommits, s.Rollbacks, s.CheckpointsTaken)
						}
					}
					// Scout mode never commits epochs.
					if k == KindScout && s.EpochCommits > s.CheckpointsTaken {
						t.Errorf("scout committed more than it took")
					}
				}
			}
			// SST must never be slower than in-order by more than a
			// small overhead margin (rollback pathologies excepted by
			// design; the margin catches regressions).
			if float64(cycles[KindSST]) > 1.3*float64(cycles[KindInOrder]) {
				t.Errorf("sst (%d cyc) much slower than inorder (%d cyc)",
					cycles[KindSST], cycles[KindInOrder])
			}
		})
	}
}

func rollbackSum(s *core.Stats) uint64 {
	var n uint64
	for _, v := range s.RollbacksBy {
		n += v
	}
	return n
}

// TestDeterminism: identical runs produce identical cycle counts.
func TestDeterminism(t *testing.T) {
	w, err := workload.Build("oltp", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	for _, k := range Kinds {
		a, err := Run(k, w.Program, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(k, w.Program, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cycles != b.Cycles || a.Retired != b.Retired {
			t.Errorf("%v: nondeterministic (%d/%d vs %d/%d)", k, a.Cycles, a.Retired, b.Cycles, b.Retired)
		}
	}
}

// TestMemLatencyMonotonic: raising DRAM latency never speeds a core up.
func TestMemLatencyMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w, err := workload.Build("randarr", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kind{KindInOrder, KindOOOLarge, KindSST} {
		var prev uint64
		for _, lat := range []int{100, 300, 600} {
			opts := DefaultOptions()
			opts.Hier.DRAM.Latency = lat
			out, err := Run(k, w.Program, opts)
			if err != nil {
				t.Fatal(err)
			}
			if out.Cycles < prev {
				t.Errorf("%v: cycles decreased (%d -> %d) as latency rose to %d",
					k, prev, out.Cycles, lat)
			}
			prev = out.Cycles
		}
	}
}

// TestSSTBeatsInOrderOnMLPWorkload: the defining behaviour at test
// scale — SST extracts MLP from independent-miss workloads.
func TestSSTBeatsInOrderOnMLPWorkload(t *testing.T) {
	w, err := workload.Build("randarr", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	io, err := Run(KindInOrder, w.Program, opts)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := Run(KindSST, w.Program, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sst.IPC() < 1.5*io.IPC() {
		t.Errorf("sst IPC %.3f not well above inorder %.3f on randarr", sst.IPC(), io.IPC())
	}
	if sst.Base.MLP() <= io.Base.MLP() {
		t.Errorf("sst MLP %.2f <= inorder %.2f", sst.Base.MLP(), io.Base.MLP())
	}
}

// TestChaseNoFalseWin: on a pure dependent chase no machine should be
// dramatically faster than in-order (there is no parallelism to find) —
// catching accidental "time travel" in the timing model.
func TestChaseNoFalseWin(t *testing.T) {
	w, err := workload.Build("chase", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	io, err := Run(KindInOrder, w.Program, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kind{KindOOOLarge, KindSST, KindScout} {
		out, err := Run(k, w.Program, opts)
		if err != nil {
			t.Fatal(err)
		}
		if float64(out.Cycles) < 0.5*float64(io.Cycles) {
			t.Errorf("%v finished a pure chase 2x faster than in-order (%d vs %d cyc)",
				k, out.Cycles, io.Cycles)
		}
	}
}
