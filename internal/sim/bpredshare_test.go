package sim

import (
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
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			for _, kind := range []bpred.Kind{bpred.Gshare, bpred.TAGE} {
				run := func(mode bpred.ShareMode) result {
					r := runCase(simCase{name: k.String(), cell: CoreCell(k, w.Program), opts: bpredShapeOpts(kind, mode)}, how{})
					r.side = mode.String()
					return r
				}
				ref := run(bpred.SharePartitioned)
				for _, mode := range shareModes[1:] {
					same(t, "kind="+kind.String(), ref, run(mode))
				}
			}
		})
	}
}

// TestPooledBpredDifferential extends the pooled-vs-fresh oracle over
// the new predictor shapes: a reused TAGE instance under every share
// mode must match a fresh construction byte-for-byte, alternating
// faulted and clean runs (same also re-asserts the CPI sum == cycles
// invariant on each run).
func TestPooledBpredDifferential(t *testing.T) {
	kinds := []Kind{KindSST, KindInOrder, KindOOOSmall}
	if testing.Short() {
		kinds = []Kind{KindSST}
	}
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			for _, mode := range shareModes {
				opts := bpredShapeOpts(bpred.TAGE, mode)
				in := newInstance(t, Shape{Kind: k}, opts)
				for seed := int64(1); seed <= 2; seed++ {
					c := genCase(t, Shape{Kind: k}, seed, genFaultProgram, 70, faults.Random(seed, faultHorizon))
					c.name += " share=" + mode.String()
					c.opts = opts
					checkPooled(t, in, c, false)
					c.plan = nil
					checkPooled(t, in, c, false)
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
		in := newInstance(t, Shape{Kind: KindSST}, opts)
		c := simCase{name: "brfield " + kind.String(), cell: CoreCell(KindSST, w.Program), opts: opts}
		for rep := 0; rep < 2; rep++ {
			checkPooled(t, in, c, false)
		}
		r := runCase(c, how{in: in})
		if r.err != nil {
			t.Fatal(r.err)
		}
		s := r.out.SST
		if s == nil || s.RollbacksBy[core.RbBranch] == 0 {
			t.Fatalf("kind=%v: workload produced no RbBranch rollbacks — the restore path went unexercised", kind)
		}
		if s.DeferredBranches == 0 {
			t.Fatalf("kind=%v: no deferred branches", kind)
		}
	}
}
