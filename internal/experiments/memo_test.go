package experiments

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// TestCellKeyFollowsTheKindsConfig: a cell is keyed by the one core
// configuration its kind builds, so options that only another kind
// reads share a cache slot, and options this kind reads never do.
func TestCellKeyFollowsTheKindsConfig(t *testing.T) {
	prog := testSpec(t).Program
	secure := func(mode string) func(*sim.Options) {
		return func(o *sim.Options) { applySecureMode(o, mode) }
	}
	type keyCase struct {
		kind    sim.Kind
		change  string
		mutate  func(*sim.Options)
		differs bool
	}
	cases := []keyCase{
		{sim.KindScout, "DQ size", func(o *sim.Options) { o.SST.DQSize *= 2 }, false},
		{sim.KindSST, "DQ size", func(o *sim.Options) { o.SST.DQSize *= 2 }, true},
		{sim.KindOOOLarge, "small ROB", func(o *sim.Options) { o.OOO.ROBSize *= 2 }, false},
		{sim.KindOOOLarge, "large ROB", func(o *sim.Options) { o.OOOLg.ROBSize *= 2 }, true},
		{sim.KindInOrder, "in-order width", func(o *sim.Options) { o.InOrder.Width++ }, true},
		{sim.KindInOrder, "L2 size", func(o *sim.Options) { o.Hier.L2.SizeBytes *= 2 }, true},
		{sim.KindInOrder, "max cycles", func(o *sim.Options) { o.MaxCycles = 99 }, true},
	}
	for _, mode := range SecureModes[1:] {
		for _, k := range []sim.Kind{sim.KindInOrder, sim.KindOOOLarge} {
			cases = append(cases, keyCase{k, "secure " + mode, secure(mode), false})
		}
		for _, k := range []sim.Kind{sim.KindScout, sim.KindSST} {
			cases = append(cases, keyCase{k, "secure " + mode, secure(mode), true})
		}
	}
	base := sim.DefaultOptions()
	for _, tc := range cases {
		o := base
		tc.mutate(&o)
		c := sim.CoreCell(tc.kind, prog)
		if got := CellKey(c, o) != CellKey(c, base); got != tc.differs {
			t.Errorf("%v, %s: key changed = %v, want %v", tc.kind, tc.change, got, tc.differs)
		}
	}
}

// memoized returns every program the process builds once and shares:
// the test-scale workloads, the counter kernels and the gadget corpus.
func memoized(t *testing.T) []*asm.Program {
	t.Helper()
	var progs []*asm.Program
	for _, n := range workload.Names {
		w, err := workload.Build(n, workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, w.Program)
	}
	for _, n := range []string{"htm-counter", "cas-counter"} {
		p, err := Program(n, workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	gadgets, err := sim.LeakGadgets()
	if err != nil {
		t.Fatal(err)
	}
	return append(progs, gadgets...)
}

// TestMemoizedProgramsStayImmutable: runs of every kind, the leak
// oracle and the /v1/cell name resolution all share the memoized
// programs, and none of them may change a byte — each digest recomputed
// from the bytes afterwards still equals the one stored before. A copy
// edited the way the leak oracle perturbs secrets must key apart.
func TestMemoizedProgramsStayImmutable(t *testing.T) {
	progs := memoized(t)
	stored := make([]asm.Digest, len(progs))
	for i, p := range progs {
		stored[i] = p.Digest()
	}
	gadgets, err := sim.LeakGadgets()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	opts := sim.DefaultOptions()
	opts.MaxCycles = 10_000_000
	w := testSpec(t)
	for _, k := range sim.Kinds {
		if _, err := r.RunCell(sim.CoreCell(k, w.Program), opts); err != nil {
			t.Fatal(err)
		}
		for _, g := range gadgets {
			_, err := r.RunCell(sim.Cell{Kind: k, Progs: []*asm.Program{g}, LeakCheck: true}, opts)
			if err != nil && !errors.Is(err, sim.ErrTransientLeak) {
				t.Fatalf("%v leak check of %s: %v", k, g.Name, err)
			}
		}
	}
	for i, p := range progs {
		q, err := Program(p.Name, workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		if q != p {
			t.Errorf("%s: resolving the name built a second program", p.Name)
		}
		cp := *p // a copy is not the memo's owner, so it rehashes the bytes
		if cp.Digest() != stored[i] || p.Digest() != stored[i] {
			t.Errorf("%s: program bytes changed while shared", p.Name)
		}
	}

	g := gadgets[0]
	edited := *g
	edited.Segments = slices.Clone(g.Segments)
	for i, s := range edited.Segments {
		if s.Addr <= g.Secrets[0].Addr && g.Secrets[0].Addr < s.Addr+uint64(len(s.Data)) {
			data := slices.Clone(s.Data)
			data[g.Secrets[0].Addr-s.Addr] ^= 0x5a
			edited.Segments[i].Data = data
		}
	}
	c := sim.Cell{Kind: sim.KindSST, Progs: []*asm.Program{g}, LeakCheck: true}
	ce := c
	ce.Progs = []*asm.Program{&edited}
	if CellKey(c, opts) == CellKey(ce, opts) {
		t.Error("a copy with a perturbed secret byte keeps its original's cell key")
	}
}

// TestProgramResolveOnce: every name Program resolves comes back as one
// shared program, from sequential and concurrent calls alike (run
// under -race).
func TestProgramResolveOnce(t *testing.T) {
	names := []string{"oltp", "htm-counter", "cas-counter", "gadget_spectre_load.rk", "gadget_spectre_store.rk"}
	for _, n := range names {
		first, err := Program(n, workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		got := make([]*asm.Program, 8)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], _ = Program(n, workload.ScaleTest)
			}(i)
		}
		wg.Wait()
		for _, p := range got {
			if p != first {
				t.Fatalf("%s: Program returned two different programs", n)
			}
		}
	}
	test, _ := Program("htm-counter", workload.ScaleTest)
	full, _ := Program("htm-counter", workload.ScaleFull)
	if test == full || test.Digest() == full.Digest() {
		t.Error("the counter kernel's scales share one program")
	}
}
