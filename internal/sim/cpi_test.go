package sim

import (
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/cmp"
	"rocksim/internal/core"
	"rocksim/internal/cpu"
	"rocksim/internal/faults"
	"rocksim/internal/inorder"
	"rocksim/internal/workload"
)

// This file enforces the cycle-accounting ("CPI stack") invariant: every
// simulated cycle lands in exactly one bucket, so the buckets sum to the
// cycle count — for every core model, on every workload, with and
// without fault injection, under both naive stepping and fast-forward
// (the run path below fast-forwards by default; ffwd_test.go holds the
// naive/fast differential).

// checkCPISum asserts the bucket invariant on one finished stats block.
func checkCPISum(t *testing.T, label string, b *cpu.BaseStats) {
	t.Helper()
	if sum := b.CPISum(); sum != b.Cycles {
		t.Errorf("%s: cycle-accounting buckets sum to %d, want %d cycles (stack %v)",
			label, sum, b.Cycles, b.CPI)
	}
	if b.CPI[cpu.BktRetire] == 0 && b.Retired > 0 {
		t.Errorf("%s: retired %d instructions but the retire bucket is empty", label, b.Retired)
	}
}

// TestCPISumInvariant runs every core kind over every workload and
// asserts the invariant, clean and under a random benign fault plan.
func TestCPISumInvariant(t *testing.T) {
	names := workload.Names
	if testing.Short() {
		names = []string{"oltp", "chase", "stream"}
	}
	for _, k := range Kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			for _, name := range names {
				w, err := workload.Build(name, workload.ScaleTest)
				if err != nil {
					t.Fatal(err)
				}
				for _, plan := range []*faults.Plan{nil, faults.Random(3, faultHorizon)} {
					opts := fuzzFaultOpts()
					opts.Faults = plan
					out, err := Run(k, w.Program, opts)
					if err != nil {
						t.Fatalf("%s faults=%v: %v", name, plan != nil, err)
					}
					label := k.String() + "/" + name
					if plan != nil {
						label += "+faults"
					}
					checkCPISum(t, label, &out.Base)
				}
			}
		})
	}
}

// TestCPISumInvariantSMT covers the fine-grained-multithreading harness:
// per thread the buckets (including the sibling-idle view) sum to the
// thread's cycles, and the physical core's aggregate — which excludes
// smt_idle, each physical cycle being attributed once by the thread that
// owned the issue slot — sums to the physical cycle count.
func TestCPISumInvariantSMT(t *testing.T) {
	wa, err := workload.Build("chase", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := workload.Build("stream", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	c := smtPair(t, wa, wb, DefaultOptions())
	if err := cpu.Run(c, DefaultOptions().CycleLimit()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		b := c.Thread(i).Core.Base()
		var all uint64
		for _, v := range b.CPI {
			all += v
		}
		if all != b.Cycles {
			t.Errorf("thread %d: buckets sum to %d, want %d cycles", i, all, b.Cycles)
		}
	}
	checkCPISum(t, "smt-aggregate", c.Base())
	if c.Base().Cycles != c.Cycle() {
		t.Errorf("aggregate cycles %d != physical cycles %d", c.Base().Cycles, c.Cycle())
	}
}

// TestCPISumInvariantCMP covers the lockstep chip: each core keeps its
// own exact stack under shared-hierarchy interference and coherence
// rollbacks.
func TestCPISumInvariantCMP(t *testing.T) {
	names := []string{"chase", "stream", "oltp"}
	var progs []*asm.Program
	for _, n := range names {
		w, err := workload.Build(n, workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, w.Program)
	}
	opts := DefaultOptions()
	chip, err := cmp.NewPrivate(opts.Hier, opts.Pred, progs,
		func(id int, m *cpu.Machine, entry uint64) (cpu.Core, error) {
			if id%2 == 0 {
				return core.New(m, opts.SST, entry), nil
			}
			return inorder.New(m, opts.InOrder, entry), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(chip, opts.CycleLimit()); err != nil {
		t.Fatal(err)
	}
	for i, c := range chip.Cores {
		checkCPISum(t, "cmp core "+itoa(i), c.Base())
	}
}

// TestCPISumInvariantTage extends the invariant across the predictor
// plane: TAGE under every share mode on deferred-branch-heavy and
// branchy workloads, clean and under a random fault plan. Rollbacks
// triggered by deferred-branch mispredicts (and their history restores)
// must not leak or drop a cycle from the stack.
func TestCPISumInvariantTage(t *testing.T) {
	for _, name := range []string{"brfield", "gcc"} {
		w, err := workload.Build(name, workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range shareModes {
			for _, plan := range []*faults.Plan{nil, faults.Random(3, faultHorizon)} {
				opts := bpredShapeOpts(bpred.TAGE, mode)
				opts.Faults = plan
				out, err := Run(KindSST, w.Program, opts)
				if err != nil {
					t.Fatalf("%s share=%v faults=%v: %v", name, mode, plan != nil, err)
				}
				label := "tage/" + mode.String() + "/" + name
				if plan != nil {
					label += "+faults"
				}
				checkCPISum(t, label, &out.Base)
			}
		}
	}
}

// TestCPISumInvariantTageSMT: the SMT aggregate stack stays exact when
// the two strands pool one TAGE table set.
func TestCPISumInvariantTageSMT(t *testing.T) {
	wa, err := workload.Build("gcc", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := workload.Build("brfield", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	opts := bpredShapeOpts(bpred.TAGE, bpred.ShareShared)
	c := smtPair(t, wa, wb, opts)
	if err := cpu.Run(c, opts.CycleLimit()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		b := c.Thread(i).Core.Base()
		var all uint64
		for _, v := range b.CPI {
			all += v
		}
		if all != b.Cycles {
			t.Errorf("thread %d: buckets sum to %d, want %d cycles", i, all, b.Cycles)
		}
	}
	checkCPISum(t, "tage-smt-aggregate", c.Base())
}

// TestCPISumInvariantTageCMP: per-core stacks stay exact on a chip whose
// SST cores share one hashed TAGE table set.
func TestCPISumInvariantTageCMP(t *testing.T) {
	names := []string{"brfield", "gcc", "loopnest"}
	var progs []*asm.Program
	for _, n := range names {
		w, err := workload.Build(n, workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, w.Program)
	}
	opts := bpredShapeOpts(bpred.TAGE, bpred.ShareHashed)
	chip, err := cmp.NewPrivate(opts.Hier, opts.Pred, progs,
		func(id int, m *cpu.Machine, entry uint64) (cpu.Core, error) {
			return core.New(m, opts.SST, entry), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(chip, opts.CycleLimit()); err != nil {
		t.Fatal(err)
	}
	for i, c := range chip.Cores {
		checkCPISum(t, "tage cmp core "+itoa(i), c.Base())
	}
}
