// Package rocksim is a cycle-level simulator of Simultaneous
// Speculative Threading (SST) — the checkpoint-based pipeline of Sun's
// ROCK processor (Chaudhry et al., ISCA 2009) — together with the
// baselines the paper compares against (a stall-on-use in-order core and
// small/large out-of-order cores), a shared cache/DRAM hierarchy, a
// CMP harness, an RK64 ISA toolchain, and the synthetic commercial
// workload suite used to reproduce the paper's evaluation.
//
// Quick start:
//
//	w, _ := rocksim.BuildWorkload("oltp", rocksim.ScaleTest)
//	res, _ := rocksim.Run(rocksim.SST, w.Program, rocksim.DefaultOptions())
//	fmt.Printf("IPC %.2f\n", res.IPC())
//
// Everything is deterministic: identical inputs produce identical cycle
// counts, so experiments are exactly reproducible.
package rocksim

import (
	"context"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/cmp"
	"rocksim/internal/core"
	"rocksim/internal/cpu"
	"rocksim/internal/experiments"
	"rocksim/internal/inorder"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
	"rocksim/internal/ooo"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// CoreKind selects one of the simulated machines.
type CoreKind = sim.Kind

// The simulated machines. SST is the paper's contribution; ExecuteAhead
// (no second strand) and Scout (no deferred queue) are its published
// ablations; the others are the comparison baselines.
const (
	InOrder      CoreKind = sim.KindInOrder
	OOOSmall     CoreKind = sim.KindOOOSmall
	OOOLarge     CoreKind = sim.KindOOOLarge
	SST          CoreKind = sim.KindSST
	SSTBig       CoreKind = sim.KindSSTBig
	ExecuteAhead CoreKind = sim.KindSSTEA
	Scout        CoreKind = sim.KindScout
)

// CoreKinds lists every machine in presentation order.
var CoreKinds = sim.Kinds

// CoreKindByName parses a machine name ("inorder", "ooo-small",
// "ooo-large", "scout", "sst-ea", "sst", "sst-big").
func CoreKindByName(s string) (CoreKind, error) { return sim.KindByName(s) }

// Configuration types for each subsystem. These alias the underlying
// implementation types, so their fields are directly usable.
type (
	// Options bundles the full machine configuration for a run.
	Options = sim.Options
	// SSTConfig parameterizes the SST core (checkpoints, DQ, SSB,
	// strands, failure policies).
	SSTConfig = core.Config
	// InOrderConfig parameterizes the in-order baseline.
	InOrderConfig = inorder.Config
	// OOOConfig parameterizes the out-of-order baselines.
	OOOConfig = ooo.Config
	// HierConfig parameterizes the cache/DRAM hierarchy.
	HierConfig = mem.HierConfig
	// CacheConfig parameterizes one cache level.
	CacheConfig = mem.CacheConfig
	// DRAMConfig parameterizes main memory.
	DRAMConfig = mem.DRAMConfig
	// PredictorConfig parameterizes branch prediction.
	PredictorConfig = bpred.Config
)

// DefaultOptions returns the standard machine configurations used in
// the reproduced evaluation (paper Table 1).
func DefaultOptions() Options { return sim.DefaultOptions() }

// DefaultSSTConfig returns the ROCK-like SST core configuration.
func DefaultSSTConfig() SSTConfig { return core.DefaultConfig() }

// Program is a loadable RK64 program image.
type Program = asm.Program

// Assemble compiles RK64 assembly source (see internal/asm for the
// syntax) into a Program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// NewProgramBuilder returns a programmatic code generator with label
// resolution, for building programs without textual assembly.
func NewProgramBuilder(base uint64) *asm.Builder { return asm.NewBuilder(base) }

// Op is an RK64 opcode and Inst a decoded instruction, for use with the
// program builder.
type (
	Op   = isa.Op
	Inst = isa.Inst
)

// OpByName resolves an assembler mnemonic ("add", "ld64", "beq", ...).
func OpByName(name string) (Op, bool) { return isa.OpByName(name) }

// DefaultTextBase is the conventional code load address.
const DefaultTextBase = asm.DefaultTextBase

// Result is the outcome of one finished run.
type Result = sim.Outcome

// Run executes a program to completion on the selected machine.
func Run(k CoreKind, prog *Program, opts Options) (Result, error) {
	return sim.Run(k, prog, opts)
}

// Workload scales.
const (
	ScaleTest = workload.ScaleTest // small, seconds-fast
	ScaleFull = workload.ScaleFull // evaluation size (footprints ≫ caches)
)

// Workload is one generated benchmark.
type Workload = workload.Spec

// WorkloadNames lists the built-in workloads.
func WorkloadNames() []string { return append([]string(nil), workload.Names...) }

// CommercialWorkloadNames lists the commercial-class suite (the paper's
// headline benchmarks).
func CommercialWorkloadNames() []string {
	return append([]string(nil), workload.CommercialNames...)
}

// BuildWorkload generates a built-in workload at the given scale.
func BuildWorkload(name string, scale workload.Scale) (*Workload, error) {
	return workload.Build(name, scale)
}

// SSTStats returns the SST-specific statistics of a result, if the run
// used an SST-family core (SST, ExecuteAhead, Scout).
func SSTStats(r Result) (*core.Stats, bool) {
	return r.SST, r.SST != nil
}

// SSTStatsBlock re-exports the SST statistics type.
type SSTStatsBlock = core.Stats

// ChipSSTStats returns the SST statistics of chip core i, when that core
// is an SST-family model.
func ChipSSTStats(ch *Chip, i int) (*SSTStatsBlock, bool) {
	c, ok := ch.Cores[i].(*core.Core)
	if !ok {
		return nil, false
	}
	return c.Stats(), true
}

// Transaction abort codes (ROCK HTM extension), as delivered in
// txbegin's destination register.
const (
	TxAbortConflict    = core.TxAbortConflict
	TxAbortCapacity    = core.TxAbortCapacity
	TxAbortUnsupported = core.TxAbortUnsupported
	TxAbortNested      = core.TxAbortNested
)

// BaseStats re-exports the common per-core statistics block.
type BaseStats = cpu.BaseStats

// Emulate runs a program on the golden functional model (no timing) and
// returns the emulator (registers, instruction count) and final memory.
func Emulate(prog *Program, maxInsts uint64) (*isa.Emulator, *mem.Sparse, error) {
	return sim.RunEmulator(prog, maxInsts)
}

// Chip is a simulated chip multiprocessor.
type Chip = cmp.Chip

// NewChip builds a multiprogrammed CMP: core i of kind k runs progs[i]
// in a private address space over the shared L2/DRAM. An unknown kind
// returns an error. When opts.Faults is set, each SST-family core gets
// its own injector replaying the plan, and the shared hierarchy another.
// Run it with RunChip.
func NewChip(k CoreKind, progs []*Program, opts Options) (*Chip, error) {
	return sim.NewChip(k, progs, opts)
}

// NewSharedChip builds a shared-memory CMP: every core of kind k
// executes prog's image in one coherent memory, starting at entries[i].
func NewSharedChip(k CoreKind, prog *Program, entries []uint64, opts Options) (*Chip, error) {
	return sim.NewSharedChip(k, prog, entries, opts)
}

// RunChip steps a chip until every core halts, under the same watchdogs
// as Run: opts' cycle budget, wall-clock Timeout and livelock window.
func RunChip(ch *Chip, opts Options) error {
	return sim.RunCore(context.Background(), ch, opts)
}

// Experiment harness: regenerates the paper's tables and figures.
type (
	// ExperimentRunner caches workload runs across experiments.
	ExperimentRunner = experiments.Runner
	// ExperimentResult is one regenerated table/figure.
	ExperimentResult = experiments.Result
)

// NewExperimentRunner returns an experiment harness.
func NewExperimentRunner() *ExperimentRunner { return experiments.NewRunner() }

// ExperimentIDs lists every reproducible artifact id (T1, T2, F1..F16, T3).
func ExperimentIDs() []string { return append([]string(nil), experiments.All...) }
