package sim

import (
	"context"
	"testing"

	"rocksim/internal/asm"
)

// maxPooledAllocs is the ceiling on heap allocations per run of a
// reused Instance. Reset clears every structure in place, so what a run
// allocates is its outcome snapshot and the run loop's bookkeeping; a
// model that starts reallocating per run breaks this long before it
// shows in wall clock.
const maxPooledAllocs = 100

// maxConstructionAllocs is the ceiling on heap allocations to build a
// single-core Instance: every structure allocates its storage once (a
// cache one slice of lines, not one per set), so construction costs a
// handful of objects per component.
const maxConstructionAllocs = 100

// allocProgram is a service-shaped cell: a few hundred instructions
// over a small table, a couple of thousand simulated cycles — the size
// at which per-run set-up cost would dominate.
const allocProgram = `
	li   r5, 0
	li   r6, 0
	li   r7, 64
	li   r8, 0x200000
loop:	ld64 r9, (r8)
	add  r5, r5, r9
	addi r8, r8, 8
	addi r6, r6, 1
	bne  r6, r7, loop
	halt
	.data 0x200000
tbl:	.quad 3, 1, 4, 1, 5, 9, 2, 6
	.zero 448
`

// TestPooledRunAllocCeiling holds every pooled run to maxPooledAllocs:
// each single-core kind, a single core switching kind on every run, an
// SMT pair and a chip.
func TestPooledRunAllocCeiling(t *testing.T) {
	prog, err := asm.Assemble(allocProgram)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	ctx := context.Background()
	// measure warms the instance with one run of every cell, then
	// averages allocations over runs of all of them in turn.
	measure := func(t *testing.T, in *Instance, cells ...Cell) {
		t.Helper()
		next := 0
		run := func() {
			c := cells[next%len(cells)]
			next++
			if _, err := in.Run(ctx, c, opts); err != nil {
				t.Fatalf("%v: %v", c.Shape(), err)
			}
		}
		for range cells {
			run()
		}
		allocs := testing.AllocsPerRun(4*len(cells), run)
		t.Logf("%.0f allocs per pooled run", allocs)
		if allocs > maxPooledAllocs {
			t.Errorf("%.0f allocs per pooled run, ceiling %d", allocs, maxPooledAllocs)
		}
	}
	newInstance := func(t *testing.T, s Shape) *Instance {
		t.Helper()
		in, err := NewInstance(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	for _, k := range Kinds {
		t.Run(k.String(), func(t *testing.T) {
			measure(t, newInstance(t, Shape{Kind: k}), CoreCell(k, prog))
		})
	}
	t.Run("kind-switch", func(t *testing.T) {
		measure(t, newInstance(t, Shape{Kind: KindInOrder}),
			CoreCell(KindInOrder, prog), CoreCell(KindSST, prog), CoreCell(KindOOOLarge, prog))
	})
	t.Run("smt", func(t *testing.T) {
		c := Cell{Kind: KindInOrder, Topo: TopoSMT, Progs: []*asm.Program{prog, prog}}
		measure(t, newInstance(t, c.Shape()), c)
	})
	t.Run("cmp", func(t *testing.T) {
		c := Cell{Kind: KindSST, Topo: TopoCMP, Progs: []*asm.Program{prog, prog}}
		measure(t, newInstance(t, c.Shape()), c)
	})
}

// TestNewInstanceAllocCeiling holds building a single-core Instance of
// every kind under DefaultOptions to maxConstructionAllocs.
func TestNewInstanceAllocCeiling(t *testing.T) {
	opts := DefaultOptions()
	for _, k := range Kinds {
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := NewInstance(Shape{Kind: k}, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: %.0f allocs per NewInstance", k, allocs)
		if allocs > maxConstructionAllocs {
			t.Errorf("%v: %.0f allocs per NewInstance, ceiling %d", k, allocs, maxConstructionAllocs)
		}
	}
}
