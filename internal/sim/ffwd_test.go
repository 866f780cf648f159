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
	"rocksim/internal/mem"
	"rocksim/internal/smt"
	"rocksim/internal/workload"
)

// This file is the fast-forward differential oracle: every observable a
// run produces — cycle and retire counts, architectural registers, the
// exported metrics JSON (counters, histograms, occupancy timelines,
// injector counts) and the Chrome trace bytes (mode spans, events,
// counter samples, fault firings with their cycles) — must be
// byte-identical between naive stepping and event-driven stall skipping
// (checkFF in harness_test.go).

// checkFFCell runs the fast-forward oracle on c with a Collector and,
// for scout, whose period jump a sink turns off, bare as well.
func checkFFCell(t *testing.T, c simCase) {
	t.Helper()
	checkFF(t, c, false)
	if c.cell.Kind == KindScout {
		checkFF(t, c, true)
	}
}

// TestFastForwardDifferentialFuzz: random programs (including
// transactions), every machine shape, no faults.
func TestFastForwardDifferentialFuzz(t *testing.T) {
	n := int64(8)
	if testing.Short() {
		n = 3
	}
	eachShape(t, func(t *testing.T, s Shape) {
		for seed := int64(1); seed <= n; seed++ {
			checkFFCell(t, genCase(t, s, seed, genProgram, 80, nil))
		}
	})
}

// TestFastForwardFaultDifferential: random programs under random benign
// fault plans, every machine shape. The injector's firing cycles and counts ride in the trace
// and metrics bytes, so a skip that jumps over a fault-plan boundary —
// or fails to replay a per-retry clamp probe — cannot pass.
func TestFastForwardFaultDifferential(t *testing.T) {
	n := int64(6)
	if testing.Short() {
		n = 2
	}
	eachShape(t, func(t *testing.T, s Shape) {
		for seed := int64(1); seed <= n; seed++ {
			checkFFCell(t, genCase(t, s, seed, genFaultProgram, 70, faults.Random(seed, faultHorizon)))
		}
	})
}

// TestFastForwardEngages drives miss-heavy workloads directly and
// asserts the skip path actually takes jumps: the simulated cycle count
// must exceed the number of Step calls by a wide margin, or the whole
// optimization is a silent no-op. Scout, whose cycles are mostly busy
// runahead rather than stalls, is held to its period jump instead: at
// most a bounded share of its cycles may be stepped. The bounds sit just
// above the shares measured with a later episode re-arming from the
// period an earlier one verified (11.7% and 13.9%), so losing that
// reuse fails here.
func TestFastForwardEngages(t *testing.T) {
	build := func(k Kind) {
		if cycles, steps, _ := driveFF(t, k, buildWorkload(t, "chase")); cycles < 2*steps {
			t.Errorf("%v: fast-forward barely engaged: %d cycles from %d steps", k, cycles, steps)
		}
	}
	build(KindInOrder)
	// The SST family's purity snapshot is gated on a run of quiet cycles
	// (core.snapAfterQuiet); the gate must leave every variant skipping.
	for _, k := range []Kind{KindSST, KindSSTEA, KindSSTBig} {
		build(k)
	}
	for _, tc := range []struct {
		wl       string
		maxShare float64
	}{{"chase", 0.12}, {"mcf", 0.14}} {
		cycles, steps, _ := driveFF(t, KindScout, buildWorkload(t, tc.wl))
		if share := float64(steps) / float64(cycles); share > tc.maxShare {
			t.Errorf("scout on %s steps %.0f%% of its %d cycles, want at most %.0f%%",
				tc.wl, 100*share, cycles, 100*tc.maxShare)
		}
	}
}

// buildWorkload returns the test-scale program of a built-in workload.
func buildWorkload(t *testing.T, name string) *asm.Program {
	t.Helper()
	w, err := workload.Build(name, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	return w.Program
}

// driveFF runs prog on a fresh kind-k core (in-order or SST family) by
// hand, jumping to every horizon NextEvent reports, and returns the
// cycles simulated, the Step calls made and the finished core. Each jump
// lands exactly on its horizon, so every stepped cycle is one of the
// counted Steps.
func driveFF(t *testing.T, k Kind, prog *asm.Program) (cycles, steps uint64, c cpu.FastForwarder) {
	t.Helper()
	opts := DefaultOptions()
	m := mem.NewSparse()
	prog.Load(m)
	mach, err := cpu.NewMachine(m, opts.Hier, opts.Pred)
	if err != nil {
		t.Fatal(err)
	}
	if k == KindInOrder {
		c = inorder.New(mach, opts.InOrder, prog.Entry)
	} else {
		cfg, err := coreConfig(k, opts)
		if err != nil {
			t.Fatal(err)
		}
		c = core.New(mach, cfg.(core.Config), prog.Entry)
	}
	for !c.Done() && steps < 50_000_000 {
		if tgt := c.NextEvent(); tgt > c.Cycle() {
			c.SkipTo(tgt)
			continue
		}
		c.Step()
		steps++
		if err := c.Err(); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
	if !c.Done() {
		t.Fatalf("%v: did not finish", k)
	}
	t.Logf("%v: %d cycles from %d steps (%.1fx)", k, c.Cycle(), steps, float64(c.Cycle())/float64(steps))
	return c.Cycle(), steps, c
}

// lookupSkips drives ff to completion by hand, jumping wherever it
// reports a stall horizon, and counts the jumps that credited lookups to
// any of preds.
func lookupSkips(t *testing.T, ff cpu.FastForwarder, preds ...*bpred.Predictor) int {
	t.Helper()
	lookups := func() (n uint64) {
		for _, p := range preds {
			n += p.Stats.DirLookups + p.Stats.BTBLookups
		}
		return n
	}
	fired := 0
	for !ff.Done() && ff.Cycle() < fuzzFaultOpts().CycleLimit() {
		if tgt := ff.NextEvent(); tgt > ff.Cycle() {
			before := lookups()
			ff.SkipTo(tgt)
			if lookups() != before {
				fired++
			}
			continue
		}
		ff.Step()
		if err := ff.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if !ff.Done() {
		t.Fatal("did not finish")
	}
	return fired
}

// TestFastForwardLookupRetries: a stall cycle whose only predictor
// change is a lookup (a deferred branch retried against a full DQ, a
// jalr retry waiting out a BTB miss) is skipped, and SkipTo credits the
// lookups. Two cells that take that path, sst under SecureDelayOnMiss
// and a CMP-2 sst chip over shared TAGE tables, must match naive
// stepping, and driving each by hand must show jumps that credited
// lookups.
func TestFastForwardLookupRetries(t *testing.T) {
	var progs []*asm.Program
	for _, n := range []string{"oltp", "jbb"} {
		w, err := workload.Build(n, workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, w.Program)
	}
	sstConfig := func(opts Options) core.Config {
		cfg, err := coreConfig(KindSST, opts)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.(core.Config)
	}
	t.Run("sst-delay", func(t *testing.T) {
		t.Parallel()
		opts := fuzzFaultOpts()
		opts.SST.SecureDelayOnMiss = true
		checkFF(t, simCase{name: "sst-delay", cell: CoreCell(KindSST, progs[0]), opts: opts}, false)
		m := mem.NewSparse()
		progs[0].Load(m)
		mach, err := cpu.NewMachine(m, opts.Hier, opts.Pred)
		if err != nil {
			t.Fatal(err)
		}
		if lookupSkips(t, core.New(mach, sstConfig(opts), progs[0].Entry), mach.Pred) == 0 {
			t.Error("no jump credited predictor lookups")
		}
	})
	t.Run("cmp2-sst-tage-shared", func(t *testing.T) {
		t.Parallel()
		opts := fuzzFaultOpts()
		opts.Pred.Kind, opts.Pred.Share = bpred.TAGE, bpred.ShareShared
		checkFF(t, simCase{name: "cmp2-sst-tage-shared", cell: Cell{Kind: KindSST, Topo: TopoCMP, Progs: progs}, opts: opts}, false)
		cfg := sstConfig(opts)
		chip, err := cmp.NewPrivate(opts.Hier, opts.Pred, progs,
			func(_ int, m *cpu.Machine, entry uint64) (cpu.Core, error) {
				return core.New(m, cfg, entry), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if lookupSkips(t, chip, chip.Machines[0].Pred, chip.Machines[1].Pred) == 0 {
			t.Error("no jump credited predictor lookups")
		}
	})
}

// smtPair builds one SMT physical core running two workloads.
func smtPair(t *testing.T, wa, wb *workload.Spec, opts Options) *smt.Core {
	t.Helper()
	c, err := smt.Build(opts.Hier, opts.Pred, opts.InOrder)
	if err != nil {
		t.Fatal(err)
	}
	c.Reset([2]uint64{wa.Program.Entry, wb.Program.Entry})
	wa.Program.Load(c.Thread(0).Mach.Mem)
	wb.Program.Load(c.Thread(1).Mach.Mem)
	return c
}

// TestFastForwardSMTDifferential: the SMT interleave skips only when
// both threads are provably stalled, splitting the credit across issue
// slots; per-thread statistics must match naive interleaving exactly.
func TestFastForwardSMTDifferential(t *testing.T) {
	wa, err := workload.Build("chase", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := workload.Build("stream", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	run := func(noFF bool) *smt.Core {
		c := smtPair(t, wa, wb, opts)
		if err := cpu.RunCtx(nil, c, cpu.RunConfig{
			MaxCycles:          opts.CycleLimit(),
			DisableFastForward: noFF,
		}); err != nil {
			t.Fatalf("noFF=%v: %v", noFF, err)
		}
		return c
	}
	naive, fast := run(true), run(false)
	if naive.Cycle() != fast.Cycle() {
		t.Errorf("SMT cycles diverge: naive %d, fast %d", naive.Cycle(), fast.Cycle())
	}
	for i := 0; i < 2; i++ {
		a, b := naive.Thread(i).Core, fast.Thread(i).Core
		if *a.Base() != *b.Base() {
			t.Errorf("thread %d base stats diverge:\n naive %+v\n fast  %+v", i, *a.Base(), *b.Base())
		}
		if a.Stats().StallCycles != b.Stats().StallCycles {
			t.Errorf("thread %d stall breakdown diverges:\n naive %v\n fast  %v",
				i, a.Stats().StallCycles, b.Stats().StallCycles)
		}
		if a.Regs() != b.Regs() {
			t.Errorf("thread %d registers diverge", i)
		}
	}
}

// TestFastForwardCMPDifferential: the lockstep chip jumps only when all
// alive cores are stalled. Compare a fast-forwarding chip, stepped by
// cpu.Run, against a hand-rolled naive lockstep over an identically
// built chip.
func TestFastForwardCMPDifferential(t *testing.T) {
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
	build := func() *cmp.Chip {
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
		return chip
	}

	fastChip := build()
	if err := cpu.Run(fastChip, opts.CycleLimit()); err != nil {
		t.Fatal(err)
	}
	naiveChip := build()
	for cycle := uint64(0); cycle < opts.CycleLimit(); cycle++ {
		alive := false
		for _, c := range naiveChip.Cores {
			if c.Done() {
				continue
			}
			alive = true
			c.Step()
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
		}
		if !alive {
			break
		}
	}

	for i := range naiveChip.Cores {
		a, b := naiveChip.Cores[i], fastChip.Cores[i]
		if a.Cycle() != b.Cycle() || a.Retired() != b.Retired() {
			t.Errorf("core %d: naive %d cycles/%d retired, fast %d cycles/%d retired",
				i, a.Cycle(), a.Retired(), b.Cycle(), b.Retired())
		}
		if *a.Base() != *b.Base() {
			t.Errorf("core %d base stats diverge:\n naive %+v\n fast  %+v", i, *a.Base(), *b.Base())
		}
	}
}
