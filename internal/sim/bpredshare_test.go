package sim

import (
	"bytes"
	"testing"

	"rocksim/internal/bpred"
	"rocksim/internal/core"
	"rocksim/internal/faults"
	"rocksim/internal/workload"
)

// This file extends the differential oracles across the predictor
// configuration plane: the share-mode collapse guarantee (a single
// strand cannot observe sharing), and pooled-vs-fresh byte-identity for
// TAGE and every share mode, clean and under fault plans — including
// runs whose RbBranch rollbacks exercise the predictor-history
// checkpoint restore.

var shareModes = []bpred.ShareMode{bpred.SharePartitioned, bpred.ShareShared, bpred.ShareHashed}

// bpredShapeOpts returns fuzz options with the predictor reconfigured.
func bpredShapeOpts(kind bpred.Kind, mode bpred.ShareMode) Options {
	o := fuzzFaultOpts()
	o.Pred.Kind = kind
	o.Pred.Share = mode
	return o
}

// TestShareModeSingleStrandCollapse pins the NewGroup contract at the
// whole-simulator level: a lone strand behaves byte-identically under
// partitioned, shared and hashed tables (strand 0's hash salt is zero),
// for both predictor kinds on every core model — outcome, architectural
// registers, metrics JSON and Chrome trace bytes.
func TestShareModeSingleStrandCollapse(t *testing.T) {
	w, err := workload.Build("gcc", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			for _, kind := range []bpred.Kind{bpred.Gshare, bpred.TAGE} {
				ref, rm, rt := ffRunWith(t, k, w.Program, nil, false, bpredShapeOpts(kind, bpred.SharePartitioned))
				for _, mode := range shareModes[1:] {
					out, m, tr := ffRunWith(t, k, w.Program, nil, false, bpredShapeOpts(kind, mode))
					if out.Cycles != ref.Cycles || out.Retired != ref.Retired || out.Regs != ref.Regs {
						t.Errorf("kind=%v share=%v: outcome diverges from partitioned (%d/%d vs %d/%d cycles/retired)",
							kind, mode, out.Cycles, out.Retired, ref.Cycles, ref.Retired)
					}
					if !bytes.Equal(rm, m) {
						t.Errorf("kind=%v share=%v: metrics JSON diverges from partitioned: %s", kind, mode, firstDiff(rm, m))
					}
					if !bytes.Equal(rt, tr) {
						t.Errorf("kind=%v share=%v: Chrome trace diverges from partitioned: %s", kind, mode, firstDiff(rt, tr))
					}
				}
			}
		})
	}
}

// TestPooledBpredDifferential extends the pooled-vs-fresh oracle over
// the new predictor shapes: a reused TAGE instance under every share
// mode must match a fresh construction byte-for-byte, alternating
// faulted and clean runs (checkPooledSeedWith also re-asserts the CPI
// sum == cycles invariant on each run).
func TestPooledBpredDifferential(t *testing.T) {
	kinds := []Kind{KindSST, KindInOrder, KindOOOSmall}
	if testing.Short() {
		kinds = []Kind{KindSST}
	}
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			for _, mode := range shareModes {
				opts := bpredShapeOpts(bpred.TAGE, mode)
				in, err := NewInstance(Shape{Kind: k}, opts)
				if err != nil {
					t.Fatal(err)
				}
				for seed := int64(1); seed <= 2; seed++ {
					prog, err := genFaultProgram(seed, 70)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					checkPooledSeedWith(t, in, prog, faults.Random(seed, faultHorizon), opts)
					checkPooledSeedWith(t, in, prog, nil, opts)
				}
			}
		})
	}
}

// TestPooledDeferredRollbackDifferential reuses one SST instance across
// back-to-back runs of a workload whose deferred branches mispredict and
// roll back (brfield), for both predictor kinds. Every RbBranch rollback
// restores the checkpointed predictor history; a restore bug — history
// not saved, restored to the wrong strand, or surviving a reset — would
// diverge the second pooled run from the fresh reference.
func TestPooledDeferredRollbackDifferential(t *testing.T) {
	w, err := workload.Build("brfield", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []bpred.Kind{bpred.Gshare, bpred.TAGE} {
		opts := bpredShapeOpts(kind, bpred.SharePartitioned)
		in, err := NewInstance(Shape{Kind: KindSST}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			checkPooledSeedWith(t, in, w.Program, nil, opts)
		}
		out, _, _ := pooledRunWith(t, in, w.Program, nil, opts)
		s := out.SST
		if s == nil || s.RollbacksBy[core.RbBranch] == 0 {
			t.Fatalf("kind=%v: workload produced no RbBranch rollbacks — the restore path went unexercised", kind)
		}
		if s.DeferredBranches == 0 {
			t.Fatalf("kind=%v: no deferred branches", kind)
		}
	}
}
