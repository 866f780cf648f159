package sim

import (
	"context"
	"fmt"

	"rocksim/internal/cmp"
	"rocksim/internal/core"
	"rocksim/internal/cpu"
	"rocksim/internal/faults"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
	"rocksim/internal/smt"
)

// Instance is a fully constructed simulator — functional memories,
// timing hierarchy, branch predictors and core models, for any machine
// shape: one core, an SMT pair or a chip — that can be reset and reused
// across runs, eliminating the per-run construction cost (about 50
// allocations and 1-2 ms for one core, mostly the L2's 2 MB tag store)
// that dominates short, service-shaped workloads. An Instance is built for one options shape: the
// construction-affecting options (Hier, Pred and the core configs — see
// Options.ShapeFingerprint) are fixed at NewInstance; the per-run
// options (programs, watchdogs, faults, observability hooks) are applied
// by each Run.
//
// A single-core Instance serves every core kind: it holds one machine
// and builds each kind's core model over it on the first run of that
// kind, and every run resets the machine and the kind's model together.
// An SMT pair or a chip is built for its one kind, topology and width.
//
// Run returns an outcome whose statistics are a snapshot (CellStats,
// per-thread blocks included), safe to cache and consume indefinitely
// while the live structures are reset for the next run. The
// pooled-vs-fresh differential fuzz in this package proves a reused
// Instance is byte-identical to a fresh construction — outcome, metrics
// JSON and Chrome trace — clean and under fault plans, for every shape
// and after a run of any other kind.
//
// An Instance is not safe for concurrent use; the pool in
// internal/experiments hands each one to a single run at a time.
type Instance struct {
	// shape is the machine shape; a single core's Kind is the kind of
	// its current core model.
	shape Shape
	// top is what the run loop steps: the core model itself, the
	// smt.Core pair or the cmp.Chip.
	top cpu.Core
	// cores and machs are the per-thread core models and machines; every
	// machine shares one hierarchy.
	cores []cpu.Core
	machs []*cpu.Machine
	// entries is the chip reset's scratch buffer.
	entries []uint64
	// kinds are a single core's models by kind, built on first use from
	// opts, the construction options with the per-run hooks dropped.
	kinds [numKinds]cpu.Core
	opts  Options
}

// numKinds is the number of core kinds (see Kinds).
const numKinds = int(KindScout) + 1

// NewInstance builds a reusable simulator for one machine shape and one
// options shape. Only the construction-affecting option fields are
// consulted (see Options.ShapeFingerprint); per-run fields are ignored
// here and honored by Run. An SMT pair's strands are in-order cores. A
// single core starts as s.Kind and switches kind with the cells it runs.
func NewInstance(s Shape, opts Options) (*Instance, error) {
	in := &Instance{shape: s}
	switch s.Topo {
	case TopoCore:
		in.shape.Width = 1
		mach, err := cpu.NewMachine(mem.NewSparse(), opts.Hier, opts.Pred)
		if err != nil {
			return nil, err
		}
		in.opts = opts
		in.opts.Faults, in.opts.Sink, in.opts.Metrics = nil, nil, nil
		in.machs = []*cpu.Machine{mach}
		in.cores = make([]cpu.Core, 1)
		if err := in.use(s.Kind); err != nil {
			return nil, err
		}
	case TopoSMT:
		if s.Kind != KindInOrder || s.Width != 2 {
			return nil, fmt.Errorf("sim: an SMT pair is two in-order strands, not %v", s)
		}
		pair, err := smt.Build(opts.Hier, opts.Pred, opts.InOrder)
		if err != nil {
			return nil, err
		}
		in.top = pair
		for i := 0; i < 2; i++ {
			in.cores = append(in.cores, pair.Thread(i).Core)
			in.machs = append(in.machs, pair.Thread(i).Mach)
		}
	case TopoCMP, TopoSharedCMP:
		in.entries = make([]uint64, s.Width)
		chip, err := cmp.New(opts.Hier, opts.Pred, in.entries, s.Topo == TopoSharedCMP,
			func(_ int, m *cpu.Machine, entry uint64) (cpu.Core, error) {
				return newCore(s.Kind, m, opts, entry)
			})
		if err != nil {
			return nil, err
		}
		in.top, in.cores, in.machs = chip, chip.Cores, chip.Machines
	default:
		return nil, fmt.Errorf("sim: bad topology %d", s.Topo)
	}
	return in, nil
}

// use makes kind k a single core's current model, building it over the
// machine on k's first use. Other topologies keep their kind.
func (in *Instance) use(k Kind) error {
	if in.shape.Topo != TopoCore || (in.top != nil && k == in.shape.Kind) {
		return nil
	}
	if k < 0 || int(k) >= numKinds {
		return fmt.Errorf("sim: bad core kind %d", k)
	}
	c := in.kinds[k]
	if c == nil {
		var err error
		if c, err = newCore(k, in.machs[0], in.opts, 0); err != nil {
			return err
		}
		in.kinds[k] = c
	}
	in.shape.Kind, in.top, in.cores[0] = k, c, c
	return nil
}

// Kind returns the core kind the instance simulates: for a single core,
// the kind of its most recent run (the kind it was built for before
// any).
func (in *Instance) Kind() Kind { return in.shape.Kind }

// Mem returns the instance's live functional memory — thread 0's, the
// whole image of a single core or a shared chip — as of the most recent
// run. The differential tests use it to compare a pooled run's final
// memory against a fresh run's.
func (in *Instance) Mem() *mem.Sparse { return in.machs[0].Mem }

func (in *Instance) hier() *mem.Hierarchy { return in.machs[0].Hier }

// reset returns every layer to its freshly constructed state, thread i
// executing from its entry point: machines first (memory, hierarchy,
// predictor), then the cores on top (which may re-register hierarchy
// listeners).
func (in *Instance) reset(c Cell) {
	switch t := in.top.(type) {
	case *smt.Core:
		t.Reset([2]uint64{c.Progs[0].Entry, c.Progs[1].Entry})
	case *cmp.Chip:
		in.entries = c.entries(in.entries)
		t.Reset(in.entries)
	default:
		in.machs[0].Reset()
		t.(cpu.Resetter).Reset(c.Progs[0].Entry)
	}
}

// prepare readies the instance for one run of cell c: reset, program
// load, secret declarations, observability hooks and fault injectors.
// It returns the injectors it armed, for publishing their counts.
func (in *Instance) prepare(c Cell, opts Options) ([]*faults.Injector, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := in.use(c.Kind); err != nil {
		return nil, err
	}
	if s := c.Shape(); s != in.shape {
		return nil, fmt.Errorf("sim: cell shape %v on a %v instance", s, in.shape)
	}
	in.reset(c)
	for i, p := range c.Progs {
		p.Load(in.machs[i].Mem)
	}
	h := in.hier()
	for _, p := range c.Progs {
		for _, s := range p.Secrets {
			h.SetSecret(s.Addr, s.Len)
		}
	}
	h.SetSink(opts.Sink)
	for _, cr := range in.cores {
		// Every core model takes the run's sink.
		if s, ok := cr.(interface{ SetSink(obs.Sink) }); ok {
			s.SetSink(opts.Sink)
		}
	}
	return in.armFaults(opts), nil
}

// armFaults installs the run's fault injectors. A single core shares one
// injector with its hierarchy, so one-shot events and counts are shared
// between the layers. A multi-threaded machine gives every SST-family
// core its own injector replaying the plan and the shared hierarchy
// another, the rule NewChip applies.
func (in *Instance) armFaults(opts Options) []*faults.Injector {
	if opts.Faults == nil {
		return nil
	}
	if in.shape.Topo == TopoCore {
		inj := opts.Faults.New(opts.Sink)
		if cc, ok := in.top.(*core.Core); ok {
			cc.SetFaults(inj)
		}
		in.hier().SetFaults(inj)
		return []*faults.Injector{inj}
	}
	var injs []*faults.Injector
	for _, cr := range in.cores {
		if cc, ok := cr.(*core.Core); ok {
			inj := opts.Faults.New(opts.Sink)
			cc.SetFaults(inj)
			injs = append(injs, inj)
		}
	}
	inj := opts.Faults.New(opts.Sink)
	in.hier().SetFaults(inj)
	return append(injs, inj)
}

// runLive prepares the instance, executes cell c to completion and
// returns its outcome: the statistics snapshot, and Mem pointing at the
// instance's live memory. It is the single execution path shared by the
// fresh RunContext and the pooled Instance.Run, so the two cannot
// drift. The caller publishes metrics and (for pooling) drops Mem.
func (in *Instance) runLive(ctx context.Context, c Cell, opts Options) (Outcome, error) {
	ctx, span := obs.StartSpan(ctx, "sim-run")
	span.SetAttr("kind", c.Kind.String())
	span.SetAttr("program", c.Desc())
	defer span.End()
	injs, err := in.prepare(c, opts)
	if err != nil {
		return Outcome{}, err
	}
	runErr := RunCore(ctx, in.top, opts)
	faults.PublishSum(opts.Metrics, injs)
	if runErr != nil {
		span.SetAttr("err", runErr.Error())
		return Outcome{}, fmt.Errorf("sim: %v on %s: %w", in.shape, c.Desc(), runErr)
	}
	span.SetAttr("cycles", fmt.Sprint(in.top.Cycle()))
	span.SetAttr("retired", fmt.Sprint(in.top.Retired()))
	out := Outcome{
		CellStats: CellStats{
			Kind:    c.Kind,
			Cycles:  in.top.Cycle(),
			Retired: in.top.Retired(),
			Hier:    in.hier().Snapshot(),
		},
		Mem: in.machs[0].Mem,
	}
	if in.shape.Topo == TopoCore {
		out.ThreadStats = snapshotThread(in.top, in.machs[0])
		out.Regs = coreRegs(in.top)
	} else {
		out.Base = *in.top.Base()
		out.Threads = make([]ThreadStats, len(in.cores))
		for i, cr := range in.cores {
			out.Threads[i] = snapshotThread(cr, in.machs[i])
		}
	}
	return out, nil
}

// RunCore steps c — a core model, an SMT pair or a chip — to completion
// under the options' watchdogs: the cycle budget, the wall-clock
// Timeout (on top of ctx's own deadline) and the livelock window. It is
// the one run loop every machine goes through.
func RunCore(ctx context.Context, c cpu.Core, opts Options) error {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	return cpu.RunCtx(ctx, c, cpu.RunConfig{
		MaxCycles:          opts.CycleLimit(),
		LivelockWindow:     opts.livelockWindow(),
		DisableFastForward: opts.NoFastForward,
	})
}

// Run executes cell c on the pooled instance and returns its outcome,
// safe to cache and read indefinitely: the statistics are a snapshot,
// and Mem is nil — the live memory image is about to be reused. Metrics
// are published from the snapshot, so a registry snapshot taken long
// after the run still reflects exactly this run.
//
// A leak-check cell runs the transient-leakage oracle instead: its
// verdict is the returned error and the outcome carries only the kind.
//
// A run that errors (watchdog trip, cancellation) leaves the instance
// reusable: the next Run resets everything. A run that panics may leave
// it corrupt — callers must drop the instance instead of reusing it.
func (in *Instance) Run(ctx context.Context, c Cell, opts Options) (Outcome, error) {
	if c.LeakCheck {
		if err := c.Validate(); err != nil {
			return Outcome{}, err
		}
		if err := in.use(c.Kind); err != nil {
			return Outcome{}, err
		}
		return Outcome{CellStats: CellStats{Kind: c.Kind}}, in.CheckTransientLeakage(ctx, c.Progs[0], opts)
	}
	out, err := in.runLive(ctx, c, opts)
	if err != nil {
		return out, err
	}
	out.Mem = nil
	out.Obs = opts.Metrics
	out.PublishObs(opts.Metrics)
	return out, nil
}

// PoolKey returns the simulator-pool key for a (machine shape, options)
// pair. A single core's key leaves out the kind: one Instance serves
// every kind of an options shape.
func PoolKey(s Shape, o Options) string {
	if s.Topo == TopoCore {
		return "core|" + o.ShapeFingerprint()
	}
	return s.String() + "|" + o.ShapeFingerprint()
}
