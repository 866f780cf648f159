package experiments

import (
	"fmt"
	"sync"

	"rocksim/internal/asm"
	"rocksim/internal/sim"
	"rocksim/internal/stats"
	"rocksim/internal/workload"
)

// HTMContention regenerates Figure 16 (extension): ROCK's hardware
// transactional memory — built on the same checkpoint/SSB machinery as
// SST — against a cas retry loop, on the classic contended-counter
// microbenchmark. Reports cycles to complete a fixed total of
// increments, plus HTM abort rates, as core count grows.
func (r *Runner) HTMContention(scale workload.Scale) (*Result, error) {
	counts := []int{1, 2, 4, 8}
	var kernels [2]*asm.Program
	for i, name := range []string{"htm-counter", "cas-counter"} {
		p, err := Program(name, scale)
		if err != nil {
			return nil, err
		}
		kernels[i] = p
	}
	var workers [len(kernels)]uint64
	for i, p := range kernels {
		entry, ok := p.Symbol("worker")
		if !ok {
			return nil, fmt.Errorf("htm experiment: no worker symbol")
		}
		workers[i] = entry
	}
	// One shared-memory SST chip per (count, kernel): column 0 is the HTM
	// variant, column 1 the cas variant.
	opts := r.BaseOptions()
	g := r.runGrid(len(counts), len(kernels), func(row, col int) cell {
		entries := make([]uint64, counts[row])
		for i := range entries {
			entries[i] = workers[col]
		}
		return cell{sim.Cell{Kind: sim.KindSST, Topo: sim.TopoSharedCMP,
			Progs: []*asm.Program{kernels[col]}, Entries: entries}, opts}
	})
	t := stats.NewTable("Figure 16 (extension): contended counter — HTM vs cas (lower cycles = better)",
		"cores", "htm cycles", "htm aborts/commit", "cas cycles", "htm/cas speedup")
	for row, n := range counts {
		htm, err := g.at(row, 0)
		if err != nil {
			t.AddRow(fillErr([]any{n}, 4, err)...)
			continue
		}
		var aborts, commits uint64
		for _, th := range htm.Threads {
			aborts += th.SST.Tx.Aborts
			commits += th.SST.Tx.Commits
		}
		vals := []any{n, htm.Cycles, stats.Ratio(aborts, commits)}
		if cas, err := g.at(row, 1); err != nil {
			vals = fillErr(vals, 2, err)
		} else {
			vals = append(vals, cas.Cycles, float64(cas.Cycles)/float64(htm.Cycles))
		}
		t.AddRow(vals...)
	}
	return &Result{
		ID: "F16", Title: "HTM vs atomics under contention", Tables: []*stats.Table{t},
		Notes: []string{
			"the transaction is optimistic: uncontended it is lock-free reads+stores; contended, conflict aborts provide the serialization cas provides pessimistically",
		},
		Errs: errLines(g),
	}, nil
}

// counterKernels are F16's contended-counter programs by name: every
// core runs "worker", adding its share of increments to one shared
// counter.
var counterKernels = map[string]string{
	"htm-counter": `
		.org 0x10000
	worker:
		movi r5, 0x200000
		movi r20, %d
	loop:
		txbegin r10, handler
		ld64 r6, (r5)
		addi r6, r6, 1
		st64 r6, (r5)
		txcommit
		addi r20, r20, -1
		bne  r20, zero, loop
		halt
	handler:
		j loop
	`,
	"cas-counter": `
		.org 0x10000
	worker:
		movi r5, 0x200000
		movi r20, %d
	loop:
		ld64 r6, (r5)      ; expected
		addi r7, r6, 1     ; desired
		mv   r8, r7
		cas  r8, (r5), r6  ; r8 -> old value
		bne  r8, r6, loop  ; lost the race: retry without decrementing
		addi r20, r20, -1
		bne  r20, zero, loop
		halt
	`,
}

// counterProgram returns a counter kernel with its per-core increment
// count for scale. Each (kernel, scale) is assembled once per process
// and shared, immutable, by every caller.
func counterProgram(name string, scale workload.Scale) (*asm.Program, error) {
	if build, ok := counterBuilt[counterKey{name, scale}]; ok {
		return build()
	}
	return assembleCounter(name, scale)
}

type counterKey struct {
	name  string
	scale workload.Scale
}

var counterBuilt = func() map[counterKey]func() (*asm.Program, error) {
	m := make(map[counterKey]func() (*asm.Program, error), 2*len(counterKernels))
	for name := range counterKernels {
		for _, s := range []workload.Scale{workload.ScaleTest, workload.ScaleFull} {
			m[counterKey{name, s}] = sync.OnceValues(func() (*asm.Program, error) { return assembleCounter(name, s) })
		}
	}
	return m
}()

func assembleCounter(name string, scale workload.Scale) (*asm.Program, error) {
	perCore := 150
	if scale == workload.ScaleFull {
		perCore = 1000
	}
	p, err := asm.Assemble(fmt.Sprintf(counterKernels[name], perCore))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p.Name = name
	return p, nil
}
