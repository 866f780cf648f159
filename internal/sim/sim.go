// Package sim ties a program image, a core model and a memory hierarchy
// into a runnable simulation. It is the harness used by the command-line
// tools, the examples, the experiments and the cross-model equivalence
// tests.
package sim

import (
	"context"
	"fmt"
	"time"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/cmp"
	"rocksim/internal/core"
	"rocksim/internal/cpu"
	"rocksim/internal/faults"
	"rocksim/internal/inorder"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
	"rocksim/internal/ooo"
)

// Kind selects a core model.
type Kind int

// Core model kinds.
const (
	KindInOrder Kind = iota
	KindOOOSmall
	KindOOOLarge
	KindSST
	KindSSTBig // "certain SST implementations": deeper DQ, more checkpoints
	KindSSTEA  // execute-ahead ablation (no second strand)
	KindScout  // hardware-scout ablation (no deferred queue)
)

// Kinds lists every core model, in presentation order.
var Kinds = []Kind{KindInOrder, KindOOOSmall, KindOOOLarge, KindScout, KindSSTEA, KindSST, KindSSTBig}

func (k Kind) String() string {
	switch k {
	case KindInOrder:
		return "inorder"
	case KindOOOSmall:
		return "ooo-small"
	case KindOOOLarge:
		return "ooo-large"
	case KindSST:
		return "sst"
	case KindSSTBig:
		return "sst-big"
	case KindSSTEA:
		return "sst-ea"
	case KindScout:
		return "scout"
	}
	return "?"
}

// MarshalText encodes the kind by name, so snapshots on the wire read
// "sst", not a number.
func (k Kind) MarshalText() ([]byte, error) {
	if k.String() == "?" {
		return nil, fmt.Errorf("sim: bad core kind %d", k)
	}
	return []byte(k.String()), nil
}

// UnmarshalText decodes a kind name (see KindByName).
func (k *Kind) UnmarshalText(b []byte) error {
	v, err := KindByName(string(b))
	*k = v
	return err
}

// KindByName parses a core-kind name.
func KindByName(s string) (Kind, error) {
	for _, k := range Kinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown core kind %q", s)
}

// Options configures a simulation run. Its JSON form is the wire form
// and the source of every key (keys.go), so a field added anywhere in
// it is keyed and crosses the wire with no other edit. The key tag
// narrows a field's role: "run" is per-run (not in the pool key),
// "core" a core configuration (narrowed to one kind's in the cache
// key), "-" never keyed. An untagged field is keyed by every view:
// over-keying only costs cache hits.
type Options struct {
	Hier    mem.HierConfig `json:"hier"`
	Pred    bpred.Config   `json:"pred"`
	InOrder inorder.Config `json:"inorder" key:"core"`
	OOO     ooo.Config     `json:"ooo" key:"core"` // used for KindOOOSmall unless overridden
	OOOLg   ooo.Config     `json:"ooo_lg" key:"core"`
	SST     core.Config    `json:"sst" key:"core"`
	// MaxCycles bounds the run (0 = DefaultMaxCycles).
	MaxCycles uint64 `json:"max_cycles,omitempty" key:"run"`
	// Timeout bounds the run in wall-clock time (0 = none): RunContext
	// arms a context deadline and returns a watchdog error when it
	// expires. Wall clock does not affect the simulated outcome — a
	// timed-out run errors, a finished one is bit-identical regardless.
	Timeout time.Duration `json:"timeout_ns,omitempty" key:"run"`
	// LivelockWindow is the no-forward-progress watchdog: a run in which
	// the core executes nothing — no retire, load, store or branch —
	// for this many consecutive cycles errors instead of spinning on to
	// MaxCycles (0 = DefaultLivelockWindow).
	LivelockWindow uint64 `json:"livelock_window,omitempty" key:"run"`
	// Faults, when non-nil, is a deterministic fault-injection schedule
	// (see internal/faults): the run replays the plan's perturbations —
	// denied checkpoints, spurious rollbacks, capacity clamps, memory
	// jitter, mispredict storms — exactly, so faulted runs are as
	// reproducible and cacheable as clean ones.
	Faults *faults.Plan `json:"faults,omitempty" key:"run"`
	// Sink, when non-nil, observes the run's event stream: it is
	// installed on the core model (every kind) and the memory hierarchy.
	// Use an obs.Collector to feed a Chrome trace and/or registry
	// timelines; remember to Flush it after the run.
	Sink obs.Sink `json:"-"`
	// Metrics, when non-nil, receives every model's counters at the end
	// of the run (see PublishObs).
	Metrics *obs.Registry `json:"-"`
	// NoFastForward steps the core cycle by cycle even when it supports
	// event-driven stall skipping (see cpu.FastForwarder). Skipping is
	// bit-identical to naive stepping — the differential fuzz in this
	// package proves it — so this knob exists for that proof and for
	// debugging, not for accuracy.
	NoFastForward bool `json:"no_fast_forward,omitempty" key:"-"`
}

// DefaultMaxCycles bounds runaway simulations.
const DefaultMaxCycles = 2_000_000_000

// DefaultLivelockWindow is the default no-activity watchdog window.
// Progress is counted as any executed work — retires, loads, stores,
// branches (see cpu.RunConfig) — so even a pointer chase that defers
// its entire run before one bulk commit registers activity every memory
// round trip. The longest legitimate silent stretch is a single memory
// round trip (hundreds of cycles); two million is orders of magnitude
// above it and still fails a wedged run a thousand times sooner than
// DefaultMaxCycles would.
const DefaultLivelockWindow = 2_000_000

// CycleLimit returns the effective cycle bound of the options.
func (o Options) CycleLimit() uint64 {
	if o.MaxCycles > 0 {
		return o.MaxCycles
	}
	return DefaultMaxCycles
}

// livelockWindow returns the effective no-retire watchdog window.
func (o Options) livelockWindow() uint64 {
	if o.LivelockWindow > 0 {
		return o.LivelockWindow
	}
	return DefaultLivelockWindow
}

// DefaultOptions returns the standard machine configurations used
// throughout the reproduction (paper Table 1).
func DefaultOptions() Options {
	return Options{
		Hier:    mem.DefaultHierConfig(),
		Pred:    bpred.DefaultConfig(),
		InOrder: inorder.DefaultConfig(),
		OOO:     ooo.SmallConfig(),
		OOOLg:   ooo.LargeConfig(),
		SST:     core.DefaultConfig(),
	}
}

// Outcome is one finished run: its statistics snapshot, plus the
// architectural results a caller may inspect. For a chip Cycles is the
// lockstep count and Retired the total over cores, so IPC is chip
// throughput.
type Outcome struct {
	CellStats
	// Mem is the final functional memory image (thread 0's, the whole
	// image of a single core or a shared chip). Only a fresh Run's
	// outcome carries it — the caller owns that machine; a pooled run's
	// memory is about to be reused, and a remote cell's never crossed the
	// wire.
	Mem *mem.Sparse
	// Regs is a single core's final architectural register file.
	Regs [isa.NumRegs]int64
	// Obs is the run's metrics registry (Options.Metrics), when one was
	// attached; reports embed its snapshot.
	Obs *obs.Registry
}

// IPC returns retired instructions per cycle.
func (o *CellStats) IPC() float64 {
	if o.Cycles == 0 {
		return 0
	}
	return float64(o.Retired) / float64(o.Cycles)
}

// coreConfig returns the configuration a kind-k core is built from — an
// inorder.Config, an ooo.Config or a core.Config derived from opts. newCore
// constructs from it and KindFingerprint keys the run cache by it, so
// what a cell is keyed by and what it builds cannot drift apart. An
// unknown kind returns an error (a caller-supplied kind must not crash a
// harness).
func coreConfig(k Kind, opts Options) (any, error) {
	switch k {
	case KindInOrder:
		return opts.InOrder, nil
	case KindOOOSmall:
		return opts.OOO, nil
	case KindOOOLarge:
		return opts.OOOLg, nil
	case KindSST:
		return opts.SST, nil
	case KindSSTBig:
		cfg := opts.SST
		cfg.DQSize = 2 * opts.SST.DQSize
		cfg.Checkpoints = 2 * opts.SST.Checkpoints
		cfg.SSBSize = 2 * opts.SST.SSBSize
		return cfg, nil
	case KindSSTEA:
		cfg := opts.SST
		cfg.SecondStrand = false
		return cfg, nil
	case KindScout:
		cfg := core.ScoutConfig()
		cfg.Width = opts.SST.Width
		cfg.TakenPenalty = opts.SST.TakenPenalty
		cfg.MispredictPenalty = opts.SST.MispredictPenalty
		cfg.RollbackPenalty = opts.SST.RollbackPenalty
		cfg.SecureDelayOnMiss = opts.SST.SecureDelayOnMiss
		cfg.SecureNoNAForward = opts.SST.SecureNoNAForward
		cfg.SecureEagerSSBFlush = opts.SST.SecureEagerSSBFlush
		return cfg, nil
	}
	return nil, fmt.Errorf("sim: bad core kind %d", k)
}

// newCore builds a core of the given kind over machine m.
func newCore(k Kind, m *cpu.Machine, opts Options, entry uint64) (cpu.Core, error) {
	cfg, err := coreConfig(k, opts)
	if err != nil {
		return nil, err
	}
	switch cfg := cfg.(type) {
	case inorder.Config:
		return inorder.New(m, cfg, entry), nil
	case ooo.Config:
		return ooo.New(m, cfg, entry), nil
	default:
		return core.New(m, cfg.(core.Config), entry), nil
	}
}

// Run loads the program into a fresh machine, executes it to completion
// on the selected core model, and returns the outcome.
func Run(k Kind, prog *asm.Program, opts Options) (Outcome, error) {
	return RunContext(context.Background(), k, prog, opts)
}

// RunContext is Run under a caller context: the run aborts with a
// watchdog error when ctx is cancelled, when Options.Timeout expires,
// when the cycle budget runs out, or when the livelock detector sees no
// retirement for a whole window. Fault plans (Options.Faults) are
// installed on both the core and the memory hierarchy.
func RunContext(ctx context.Context, k Kind, prog *asm.Program, opts Options) (Outcome, error) {
	// A fresh run is a pooled run with pool size zero: build an Instance
	// and drive the exact execution path a reused one takes (runLive),
	// so the fresh and pooled flavors cannot drift. The returned outcome
	// keeps the live memory image — callers of Run/RunContext own it.
	inst, err := NewInstance(Shape{Kind: k}, opts)
	if err != nil {
		return Outcome{}, err
	}
	out, err := inst.runLive(ctx, CoreCell(k, prog), opts)
	if err != nil {
		return out, err
	}
	out.Obs = opts.Metrics
	out.PublishObs(opts.Metrics)
	return out, nil
}

// NewChip builds a multiprogrammed chip of kind-k cores, core i running
// progs[i] in a private address space over the shared L2/DRAM, with the
// options' observability hooks and fault rule installed (see
// Instance). Step it with RunCore. An unknown kind returns an error.
func NewChip(k Kind, progs []*asm.Program, opts Options) (*cmp.Chip, error) {
	return newChip(Cell{Kind: k, Topo: TopoCMP, Progs: progs}, opts)
}

// NewSharedChip builds a shared-memory chip: every kind-k core executes
// prog's image in one coherent memory, starting at entries[i].
func NewSharedChip(k Kind, prog *asm.Program, entries []uint64, opts Options) (*cmp.Chip, error) {
	return newChip(Cell{Kind: k, Topo: TopoSharedCMP, Progs: []*asm.Program{prog}, Entries: entries}, opts)
}

func newChip(c Cell, opts Options) (*cmp.Chip, error) {
	in, err := NewInstance(c.Shape(), opts)
	if err != nil {
		return nil, err
	}
	if _, err := in.prepare(c, opts); err != nil {
		return nil, err
	}
	return in.top.(*cmp.Chip), nil
}

// PublishObs publishes the run's statistics snapshot — the core
// model's counters, the predictor's and the memory hierarchy's — into
// r. No-op when r is nil. sim.Run calls this automatically when
// Options.Metrics is set. A multi-threaded cell publishes its aggregate
// core counters, the hierarchy's (per-core names) and its threads'
// predictor counters summed; the per-thread blocks stay in Threads.
func (o *CellStats) PublishObs(r *obs.Registry) {
	if r == nil {
		return
	}
	o.ThreadStats.publishObs(r)
	for i := range o.Threads {
		pr := obs.NewRegistry()
		o.Threads[i].Pred.PublishObs(pr)
		r.Merge(pr)
	}
	o.Hier.PublishObs(r)
}

func coreRegs(c cpu.Core) [isa.NumRegs]int64 {
	switch cc := c.(type) {
	case *inorder.Core:
		return cc.Regs()
	case *ooo.Core:
		return cc.Regs()
	case *core.Core:
		return cc.Regs()
	}
	return [isa.NumRegs]int64{}
}

// RunEmulator executes the program on the golden functional model and
// returns the final emulator state and memory image.
func RunEmulator(prog *asm.Program, maxInsts uint64) (*isa.Emulator, *mem.Sparse, error) {
	m := mem.NewSparse()
	prog.Load(m)
	e := isa.NewEmulator(prog.Entry, m)
	if err := e.Run(maxInsts); err != nil {
		return e, m, err
	}
	return e, m, nil
}
