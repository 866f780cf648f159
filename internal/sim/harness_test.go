package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/faults"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
)

// This file is the differential harness every oracle of the package runs
// through. A case is one simulation: a cell (a machine shape and the
// programs its threads run), an options variant and a fault plan. One
// runner executes a case fresh, naively stepped, pooled on a used
// Instance or bare; one comparator requires two runs of a case to agree
// in every observable; the emulator oracle requires a run to commit the
// functional model's architectural state; and one shrinker reduces a
// failing generated case to a minimal reproducer. A test is a case list
// plus the oracles it runs over it.

// A simCase is one simulation an oracle checks.
type simCase struct {
	name string
	cell Cell
	opts Options
	plan *faults.Plan // nil: no faults
}

// diffShapes are the machine shapes the naive-vs-fast-forward and
// pooled-vs-fresh oracles cover: every single-core kind, an SMT-2 pair,
// a 2-core SST chip and a 2-core scout chip.
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

// eachShape runs body in a parallel subtest per shape of diffShapes.
func eachShape(t *testing.T, body func(t *testing.T, s Shape)) {
	for _, s := range diffShapes {
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			body(t, s)
		})
	}
}

// genCase is the case of shape s for one seed: thread i runs the
// program gen makes from seed+i and nstmt, under the fuzz options and
// plan.
func genCase(t *testing.T, s Shape, seed int64, gen func(int64, int) (*asm.Program, error), nstmt int, plan *faults.Plan) simCase {
	t.Helper()
	c := simCase{name: s.String() + " seed " + itoa(int(seed)), cell: Cell{Kind: s.Kind, Topo: s.Topo}, opts: fuzzFaultOpts(), plan: plan}
	for i := int64(0); i < int64(max(s.Width, 1)); i++ {
		p, err := gen(seed+i, nstmt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed+i, err)
		}
		c.cell.Progs = append(c.cell.Progs, p)
	}
	return c
}

// kindCases are the cases of prog on every core kind.
func kindCases(name string, prog *asm.Program, opts Options, plan *faults.Plan) []simCase {
	cs := make([]simCase, len(Kinds))
	for i, k := range Kinds {
		cs[i] = simCase{name: name + " on " + k.String(), cell: CoreCell(k, prog), opts: opts, plan: plan}
	}
	return cs
}

// how is the way runCase executes a case: on a fresh machine or pooled
// on in, with fast-forward or naively stepped, with a Collector
// recording a Chrome trace or bare (a sink turns scout's period jump
// off).
type how struct {
	in    *Instance
	naive bool
	bare  bool
}

// A result is one run of a case: its outcome, each thread's final
// memory, the metrics JSON and the Chrome trace bytes (nil when bare).
// err is the run's failure.
type result struct {
	side           string
	naive          bool
	chip           bool
	out            Outcome
	mems           []*mem.Sparse
	metrics, trace []byte
	err            error
}

// runCase executes case c as h says, with a metrics registry attached.
// A fresh single core runs through Run, which keeps its memory; any
// other fresh shape runs on a new Instance.
func runCase(c simCase, h how) result {
	r := result{side: "fresh", naive: h.naive, chip: c.cell.Topo == TopoCMP || c.cell.Topo == TopoSharedCMP}
	if h.in != nil {
		r.side = "pooled"
	}
	if h.naive {
		r.side = "naive " + r.side
	}
	opts := c.opts
	opts.Faults, opts.NoFastForward, opts.Metrics, opts.Sink = c.plan, h.naive, obs.NewRegistry(), nil
	var tr *obs.Trace
	var col *obs.Collector
	if !h.bare {
		tr = obs.NewTrace()
		col = obs.NewCollector(tr, opts.Metrics)
		opts.Sink = col
	}
	in := h.in
	if in == nil && c.cell.Topo != TopoCore {
		if in, r.err = NewInstance(c.cell.Shape(), opts); r.err != nil {
			return r
		}
	}
	if in == nil {
		r.out, r.err = Run(c.cell.Kind, c.cell.Progs[0], opts)
		r.mems = []*mem.Sparse{r.out.Mem}
	} else {
		r.out, r.err = in.Run(context.Background(), c.cell, opts)
		for _, m := range in.machs {
			r.mems = append(r.mems, m.Mem)
		}
	}
	if r.err == nil && h.in != nil && r.out.Mem != nil {
		r.err = fmt.Errorf("the pooled outcome leaked the live memory image")
	}
	if r.err != nil {
		r.err = fmt.Errorf("%s (%s): %w", c.name, r.side, r.err)
		return r
	}
	var mbuf, tbuf bytes.Buffer
	if col != nil {
		col.Flush(r.out.Cycles)
		if r.err = tr.WriteChrome(&tbuf); r.err != nil {
			return r
		}
		r.trace = tbuf.Bytes()
	}
	r.err = opts.Metrics.WriteJSON(&mbuf)
	r.metrics = mbuf.Bytes()
	return r
}

// same requires two successful runs of one case to agree in every
// observable both carry: cycles, retired instructions, registers, base
// statistics, the whole statistics snapshot, each thread's memory, the
// metrics JSON and the Chrome trace. A single core's cycle-accounting
// buckets must also sum to its cycles. The one exemption: a chip's
// cores share one Collector, whose mode-span tracking follows a single
// event stream, and naive lockstep interleaves the cores' per-cycle
// reports where a jump reports each core's stall as one run, so a
// chip's trace bytes differ between naive stepping and fast-forward.
func same(t *testing.T, label string, a, b result) {
	t.Helper()
	if err := errors.Join(a.err, b.err); err != nil {
		t.Fatal(err)
	}
	ao, bo := &a.out, &b.out
	if ao.Cycles != bo.Cycles || ao.Retired != bo.Retired {
		t.Errorf("%s: %s %d cycles/%d retired, %s %d cycles/%d retired",
			label, a.side, ao.Cycles, ao.Retired, b.side, bo.Cycles, bo.Retired)
	}
	if ao.Regs != bo.Regs {
		t.Errorf("%s: architectural registers diverge between %s and %s", label, a.side, b.side)
	}
	if ao.Base != bo.Base {
		t.Errorf("%s: base stats diverge:\n %s %+v\n %s %+v", label, a.side, ao.Base, b.side, bo.Base)
	}
	if ao.Threads == nil {
		checkCPISum(t, label+" "+a.side, &ao.Base)
		checkCPISum(t, label+" "+b.side, &bo.Base)
	}
	diff := func(what string, x, y []byte) {
		if !bytes.Equal(x, y) {
			t.Errorf("%s: %s diverges: %s", label, what, firstDiff(a.side, x, b.side, y))
		}
	}
	aj, err := json.Marshal(ao.CellStats)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(bo.CellStats)
	if err != nil {
		t.Fatal(err)
	}
	diff("statistics snapshot", aj, bj)
	diff("metrics JSON", a.metrics, b.metrics)
	if a.trace != nil && b.trace != nil && !(a.chip && a.naive != b.naive) {
		diff("Chrome trace", a.trace, b.trace)
	}
	for i := range a.mems {
		if !a.mems[i].Equal(b.mems[i]) {
			t.Errorf("%s: thread %d's final memory diverges between %s and %s at %#x...",
				label, i, a.side, b.side, a.mems[i].Diff(b.mems[i], 4))
		}
	}
}

// firstDiff locates the first byte divergence between side an's bytes a
// and side bn's bytes b, and returns a short context window around it
// for a failure message.
func firstDiff(an string, a []byte, bn string, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(i-40, 0)
	win := func(s []byte) string {
		if lo > len(s) {
			return ""
		}
		return string(s[lo:min(i+40, len(s))])
	}
	return "at byte " + itoa(i) + ": " + an + " ..." + win(a) + "... vs " + bn + " ..." + win(b) + "..."
}

// checkFF is the fast-forward oracle: naive stepping and fast-forward
// agree on case c, run with a Collector or bare.
func checkFF(t *testing.T, c simCase, bare bool) {
	t.Helper()
	same(t, c.name, runCase(c, how{naive: true, bare: bare}), runCase(c, how{bare: bare}))
}

// checkPooled is the pooling oracle: a run of case c on the used
// instance in agrees with a run on a fresh machine.
func checkPooled(t *testing.T, in *Instance, c simCase, bare bool) {
	t.Helper()
	same(t, c.name, runCase(c, how{bare: bare}), runCase(c, how{in: in, bare: bare}))
}

// newInstance builds an Instance of shape s or fails the test.
func newInstance(t *testing.T, s Shape, opts Options) *Instance {
	t.Helper()
	in, err := NewInstance(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// emuBudget bounds the functional model's instructions per program; it
// is far above any program the oracles run.
const emuBudget = 500_000_000

// emuCheck is the emulator oracle: it runs the single-core case c bare
// and its program on the functional model, and reports the first
// difference in committed state: the retired instruction count, r1–r31
// or the final memory. A fault plan perturbs only timing and
// speculative structures, so a plan that changes committed state is a
// correctness bug, or a deliberately unsound fault such as skip-restore.
func emuCheck(c simCase) (result, error) {
	r := runCase(c, how{bare: true})
	if r.err != nil {
		return r, r.err
	}
	emu, gold, err := RunEmulator(c.cell.Progs[0], emuBudget)
	if err != nil {
		return r, fmt.Errorf("%s: emulator: %w", c.name, err)
	}
	name := c.name
	if c.plan != nil {
		name += " under " + c.plan.String()
	}
	if r.out.Retired != emu.Executed {
		return r, fmt.Errorf("%s: retired %d instructions, the emulator %d", name, r.out.Retired, emu.Executed)
	}
	for i := 1; i < isa.NumRegs; i++ {
		if r.out.Regs[i] != emu.Reg[i] {
			return r, fmt.Errorf("%s: r%d = %#x, the emulator's %#x", name, i, uint64(r.out.Regs[i]), uint64(emu.Reg[i]))
		}
	}
	if !r.mems[0].Equal(gold) {
		diffs := r.mems[0].Diff(gold, 8)
		return r, fmt.Errorf("%s: memory differs from the emulator's at %d+ addresses, first: %#x", name, len(diffs), diffs)
	}
	return r, nil
}

// checkEmu runs the emulator oracle over cases and stops the test at
// the first failure.
func checkEmu(t *testing.T, cases ...simCase) {
	t.Helper()
	for _, c := range cases {
		if _, err := emuCheck(c); err != nil {
			t.Fatal(err)
		}
	}
}

// checkShrunk runs check on the program gen makes from seed and nstmt
// under plan. A failure is reported with the smallest reproducer a
// greedy pass finds: drop plan events one at a time, then halve the
// program, keeping every step that still fails.
func checkShrunk(t *testing.T, what string, gen func(int64, int) (*asm.Program, error), seed int64, nstmt int, plan *faults.Plan, check func(*asm.Program, *faults.Plan) error) {
	t.Helper()
	prog, err := gen(seed, nstmt)
	if err != nil {
		t.Fatalf("seed %d: generate: %v", seed, err)
	}
	if err = check(prog, plan); err == nil {
		return
	}
	fails := func(p *faults.Plan, n int) bool {
		prog, err := gen(seed, n)
		return err == nil && check(prog, p) != nil
	}
	small := plan
	if plan != nil {
		events := append([]faults.Event(nil), plan.Events...)
		for i := 0; i < len(events); {
			trial := append(append([]faults.Event(nil), events[:i]...), events[i+1:]...)
			if fails(&faults.Plan{Seed: plan.Seed, Events: trial}, nstmt) {
				events = trial
			} else {
				i++
			}
		}
		small = &faults.Plan{Seed: plan.Seed, Events: events}
	}
	for nstmt > 10 && fails(small, nstmt/2) {
		nstmt /= 2
	}
	t.Errorf("seed %d: %v\n  minimal repro: %s seed=%d nstmt=%d plan=%q", seed, err, what, seed, nstmt, small)
}
