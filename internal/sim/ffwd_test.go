package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/cmp"
	"rocksim/internal/core"
	"rocksim/internal/cpu"
	"rocksim/internal/faults"
	"rocksim/internal/inorder"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
	"rocksim/internal/smt"
	"rocksim/internal/workload"
)

// This file is the fast-forward differential oracle: every observable a
// run produces — cycle and retire counts, architectural registers, the
// exported metrics JSON (counters, histograms, occupancy timelines,
// injector counts) and the Chrome trace bytes (mode spans, events,
// counter samples, fault firings with their cycles) — must be
// byte-identical between naive stepping and event-driven stall skipping.

// diffShapes are the machine shapes the differential oracles cover:
// every single-core kind, an SMT-2 pair, a 2-core SST chip and a 2-core
// scout chip.
var diffShapes = func() []Shape {
	var out []Shape
	for _, k := range Kinds {
		out = append(out, Shape{Kind: k})
	}
	return append(out,
		Shape{Kind: KindInOrder, Topo: TopoSMT, Width: 2},
		Shape{Kind: KindSST, Topo: TopoCMP, Width: 2},
		Shape{Kind: KindScout, Topo: TopoCMP, Width: 2})
}()

// genCell builds the differential cell of shape s for one seed: thread
// i runs the program gen generates from seed+i.
func genCell(t *testing.T, s Shape, seed int64, gen func(int64, int) (*asm.Program, error), nstmt int) Cell {
	t.Helper()
	width := s.Width
	if width == 0 {
		width = 1
	}
	c := Cell{Kind: s.Kind, Topo: s.Topo}
	for i := 0; i < width; i++ {
		p, err := gen(seed+int64(i), nstmt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed+int64(i), err)
		}
		c.Progs = append(c.Progs, p)
	}
	return c
}

// cellRun executes cell c with full observability attached — on in when
// it is non-nil, else on a fresh machine (through sim.Run for a single
// core) — and returns the outcome, the final memory images and the
// metrics-JSON and Chrome-trace bytes.
func cellRun(t *testing.T, in *Instance, c Cell, plan *faults.Plan, noFF bool, opts Options) (Outcome, []*mem.Sparse, []byte, []byte) {
	t.Helper()
	opts.Faults = plan
	opts.NoFastForward = noFF
	opts.Metrics = obs.NewRegistry()
	tr := obs.NewTrace()
	col := obs.NewCollector(tr, opts.Metrics)
	opts.Sink = col
	if in == nil && c.Topo != TopoCore {
		var err error
		if in, err = NewInstance(c.Shape(), opts); err != nil {
			t.Fatal(err)
		}
	}
	var out Outcome
	var err error
	var mems []*mem.Sparse
	if in != nil {
		out, err = in.Run(context.Background(), c, opts)
		for _, m := range in.machs {
			mems = append(mems, m.Mem)
		}
	} else {
		out, err = Run(c.Kind, c.Progs[0], opts)
		mems = []*mem.Sparse{out.Mem}
	}
	if err != nil {
		t.Fatalf("%v noFF=%v: %v", c.Shape(), noFF, err)
	}
	col.Flush(out.Cycles)
	var mbuf, tbuf bytes.Buffer
	if err := opts.Metrics.WriteJSON(&mbuf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&tbuf); err != nil {
		t.Fatal(err)
	}
	return out, mems, mbuf.Bytes(), tbuf.Bytes()
}

// ffRunWith runs prog on a fresh kind-k core under caller-chosen base
// options, so differentials can vary construction-affecting knobs
// (predictor kind, share mode).
func ffRunWith(t *testing.T, k Kind, prog *asm.Program, plan *faults.Plan, noFF bool, opts Options) (Outcome, []byte, []byte) {
	t.Helper()
	out, _, m, tr := cellRun(t, nil, CoreCell(k, prog), plan, noFF, opts)
	return out, m, tr
}

// statsJSON serializes a run's whole statistics snapshot — every model,
// predictor, hierarchy and per-thread block — for comparison.
func statsJSON(t *testing.T, out Outcome) []byte {
	t.Helper()
	b, err := json.Marshal(out.CellStats)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// firstDiff locates the first byte divergence and returns a short
// context window around it for the failure message.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 40
	if lo < 0 {
		lo = 0
	}
	win := func(s []byte) string {
		hi := i + 40
		if hi > len(s) {
			hi = len(s)
		}
		if lo > len(s) {
			return ""
		}
		return string(s[lo:hi])
	}
	return "at byte " + itoa(i) + ": naive ..." + win(a) + "... vs fast ..." + win(b) + "..."
}

// checkFFCell runs cell c naively and with fast-forward and requires
// every observable to match. A scout cell runs bare as well, since the
// Collector turns scout's period jump off.
func checkFFCell(t *testing.T, c Cell, plan *faults.Plan) {
	t.Helper()
	checkFFCellOpts(t, c, plan, fuzzFaultOpts())
	if c.Kind == KindScout {
		checkFFBare(t, c.Shape().String(), c, plan, fuzzFaultOpts())
	}
}

// checkFFCellOpts is checkFFCell under caller-chosen base options.
func checkFFCellOpts(t *testing.T, c Cell, plan *faults.Plan, opts Options) {
	t.Helper()
	s := c.Shape()
	naive, _, nm, nt := cellRun(t, nil, c, plan, true, opts)
	fast, _, fm, ft := cellRun(t, nil, c, plan, false, opts)
	if naive.Cycles != fast.Cycles || naive.Retired != fast.Retired {
		t.Errorf("%v: naive %d cycles/%d retired, fast-forward %d cycles/%d retired",
			s, naive.Cycles, naive.Retired, fast.Cycles, fast.Retired)
	}
	if naive.Regs != fast.Regs {
		t.Errorf("%v: architectural registers diverge under fast-forward", s)
	}
	nb, fb := &naive.Base, &fast.Base
	if nb.CPI != fb.CPI {
		t.Errorf("%v: cycle-accounting buckets diverge under fast-forward:\n naive %v\n fast  %v",
			s, nb.CPI, fb.CPI)
	}
	if c.Topo == TopoCore {
		for _, r := range []struct {
			name string
			b    *cpu.BaseStats
		}{{"naive", nb}, {"fast", fb}} {
			if sum := r.b.CPISum(); sum != r.b.Cycles {
				t.Errorf("%v %s: cycle-accounting buckets sum to %d, want %d cycles",
					s, r.name, sum, r.b.Cycles)
			}
		}
	}
	if nj, fj := statsJSON(t, naive), statsJSON(t, fast); !bytes.Equal(nj, fj) {
		t.Errorf("%v: statistics snapshot diverges under fast-forward: %s", s, firstDiff(nj, fj))
	}
	if !bytes.Equal(nm, fm) {
		t.Errorf("%v: metrics JSON diverges under fast-forward: %s", s, firstDiff(nm, fm))
	}
	// A chip's cores share the one Collector, whose mode-span tracking
	// follows a single event stream: naive lockstep interleaves the cores'
	// per-cycle reports where a jump reports each core's stall as one run,
	// so a chip's trace bytes depend on the stepping, not just the
	// simulation. Everything else must still match.
	if c.Topo != TopoCMP && c.Topo != TopoSharedCMP && !bytes.Equal(nt, ft) {
		t.Errorf("%v: Chrome trace diverges under fast-forward: %s", s, firstDiff(nt, ft))
	}
}

// TestFastForwardDifferentialFuzz: random programs (including
// transactions), every machine shape, no faults.
func TestFastForwardDifferentialFuzz(t *testing.T) {
	n := int64(8)
	if testing.Short() {
		n = 3
	}
	for _, s := range diffShapes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= n; seed++ {
				checkFFCell(t, genCell(t, s, seed, genProgram, 80), nil)
			}
		})
	}
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
	for _, s := range diffShapes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= n; seed++ {
				checkFFCell(t, genCell(t, s, seed, genFaultProgram, 70), faults.Random(seed, faultHorizon))
			}
		})
	}
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
		checkFFCellOpts(t, CoreCell(KindSST, progs[0]), nil, opts)
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
		checkFFCellOpts(t, Cell{Kind: KindSST, Topo: TopoCMP, Progs: progs}, nil, opts)
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
