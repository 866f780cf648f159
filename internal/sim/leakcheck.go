package sim

import (
	"context"
	"errors"
	"fmt"

	"rocksim/internal/asm"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
)

// The transient-leakage oracle (docs/SECURITY.md): run a program twice,
// differing only in the bytes of its declared secret regions, and
// require that every piece of attacker-observable microarchitectural
// state — the post-squash cache/MSHR digest after each rollback, the
// final digest, and the cycle count — is identical. Speculation that
// lets a secret value steer an observable access (a Spectre-style
// transmitter) fails the check; the secure-speculation modes
// (core.Config.Secure*) exist to make it pass.

// ErrTransientLeak is wrapped by CheckTransientLeakage when observable
// microarchitectural state depended on secret bytes: the program, on
// this core kind and configuration, leaks transiently.
var ErrTransientLeak = errors.New("transient leakage: observable state depends on secret bytes")

// ErrArchSecretDependence is wrapped when the two runs disagree in
// *committed* state (retired count or register file). That is not a
// transient leak — the program architecturally computes on its secrets —
// and the oracle cannot reason about such a program; gadgets must scrub
// committed state of secret dependence.
var ErrArchSecretDependence = errors.New("committed architectural state depends on secret bytes")

// secretPerturbMask is XORed into every secret byte for the differential
// run. Any nonzero mask works — the oracle's claim is independence, not
// coverage of a particular value.
const secretPerturbMask = 0x5A

// CheckTransientLeakage runs the differential leakage oracle for prog on
// a fresh instance of core kind k. See Instance.CheckTransientLeakage.
func CheckTransientLeakage(k Kind, prog *asm.Program, opts Options) error {
	inst, err := NewInstance(Shape{Kind: k}, opts)
	if err != nil {
		return err
	}
	return inst.CheckTransientLeakage(context.Background(), prog, opts)
}

// CheckTransientLeakage runs prog twice on the pooled instance — once
// with secret regions perturbed, once as written — and compares every
// observable: the post-rollback digest sequence, the final digest and
// the cycle count. The perturbed run is silent (no user sinks, no
// metrics); the baseline run keeps the caller's observability hooks, and
// the oracle's comparison count lands in the leak/oracle_checks counter
// before metrics publish. A nil error means the secrets were invisible.
//
// Both runs go through the same reset-and-run path as every pooled run,
// so the oracle is safe on instances handed out by a pool; the
// differential tests in instance_test.go prove secret-tainted runs
// reset clean. As with Run, construction-affecting option fields —
// which include the secure-speculation modes — must match the shape the
// instance was built with (pool on PoolKey, which covers them).
func (in *Instance) CheckTransientLeakage(ctx context.Context, prog *asm.Program, opts Options) error {
	if len(prog.Secrets) == 0 {
		return fmt.Errorf("leak oracle: program %s declares no secret regions", prog.Desc())
	}
	perturbed, err := perturbSecrets(prog)
	if err != nil {
		return err
	}
	// The perturbed run is silent; the baseline keeps the caller's hooks,
	// and its snapshot is what the check counts and metrics below
	// describe.
	quiet := opts
	quiet.Sink, quiet.Metrics = nil, nil
	alt, err := in.leakRun(ctx, perturbed, quiet)
	if err != nil {
		return fmt.Errorf("leak oracle (perturbed run): %w", err)
	}
	base, err := in.leakRun(ctx, prog, opts)
	if err != nil {
		return fmt.Errorf("leak oracle (baseline run): %w", err)
	}

	// Precondition: committed architectural state must not depend on the
	// secret at all, or the digests below would diverge for boring
	// architectural reasons.
	leakErr := func() error {
		if base.retired != alt.retired {
			return fmt.Errorf("%w: %v on %s: retired %d vs %d", ErrArchSecretDependence,
				in.shape.Kind, prog.Desc(), base.retired, alt.retired)
		}
		for r := 1; r < isa.NumRegs; r++ {
			if base.regs[r] != alt.regs[r] {
				return fmt.Errorf("%w: %v on %s: r%d = %#x vs %#x", ErrArchSecretDependence,
					in.shape.Kind, prog.Desc(), r, uint64(base.regs[r]), uint64(alt.regs[r]))
			}
		}
		// Observables, coarsest first: a cycle-count difference is the
		// grossest timing channel.
		if base.cycles != alt.cycles {
			return fmt.Errorf("%w: %v on %s: run took %d cycles vs %d", ErrTransientLeak,
				in.shape.Kind, prog.Desc(), base.cycles, alt.cycles)
		}
		if len(base.rollDigests) != len(alt.rollDigests) {
			return fmt.Errorf("%w: %v on %s: %d rollbacks vs %d", ErrTransientLeak,
				in.shape.Kind, prog.Desc(), len(base.rollDigests), len(alt.rollDigests))
		}
		for i := range base.rollDigests {
			if base.rollDigests[i] != alt.rollDigests[i] {
				return fmt.Errorf("%w: %v on %s: post-squash digest %d/%d differs (%#x vs %#x)",
					ErrTransientLeak, in.shape.Kind, prog.Desc(), i+1, len(base.rollDigests),
					base.rollDigests[i], alt.rollDigests[i])
			}
		}
		if base.finalDigest != alt.finalDigest {
			return fmt.Errorf("%w: %v on %s: final observable digest differs (%#x vs %#x)",
				ErrTransientLeak, in.shape.Kind, prog.Desc(), base.finalDigest, alt.finalDigest)
		}
		return nil
	}()

	// One oracle check per digest comparison (rollbacks + final), counted
	// on the baseline run's snapshot before it is published.
	base.out.Hier.Hier.OracleChecks += uint64(len(base.rollDigests) + 1)
	base.out.PublishObs(opts.Metrics)
	return leakErr
}

// leakRun is one half of the differential pair: a pooled run with a
// digest recorder teed onto the caller's sink, capturing the observable
// digest after every rollback plus the final digest and cycle count.
type leakRun struct {
	rollDigests []uint64
	finalDigest uint64
	cycles      uint64
	retired     uint64
	regs        [isa.NumRegs]int64
	out         CellStats
}

func (in *Instance) leakRun(ctx context.Context, prog *asm.Program, opts Options) (leakRun, error) {
	rec := &digestRecorder{hier: in.hier()}
	o := opts
	o.Sink = obs.Tee(rec, opts.Sink)
	out, err := in.runLive(ctx, CoreCell(in.shape.Kind, prog), o)
	if err != nil {
		return leakRun{}, err
	}
	return leakRun{
		rollDigests: rec.digests,
		finalDigest: in.hier().ObservableDigest(out.Cycles),
		cycles:      out.Cycles,
		retired:     out.Retired,
		regs:        out.Regs,
		out:         out.CellStats,
	}, nil
}

// perturbSecrets deep-copies prog's segments with every byte of every
// secret region XORed by secretPerturbMask. A secret region must be
// backed by initialized segment data — a secret of implicit zeroes
// cannot be perturbed, so it is an error.
func perturbSecrets(prog *asm.Program) (*asm.Program, error) {
	p := *prog
	p.Segments = make([]asm.Segment, len(prog.Segments))
	for i, s := range prog.Segments {
		p.Segments[i] = asm.Segment{Addr: s.Addr, Data: append([]byte(nil), s.Data...)}
	}
	touched := 0
	for _, sec := range prog.Secrets {
		for i := range p.Segments {
			seg := &p.Segments[i]
			lo, hi := sec.Addr, sec.Addr+uint64(sec.Len)
			if seg.Addr > lo {
				lo = seg.Addr
			}
			if end := seg.Addr + uint64(len(seg.Data)); end < hi {
				hi = end
			}
			for a := lo; a < hi; a++ {
				seg.Data[a-seg.Addr] ^= secretPerturbMask
				touched++
			}
		}
	}
	if touched == 0 {
		return nil, fmt.Errorf("leak oracle: no secret byte of %s is backed by initialized data", prog.Desc())
	}
	return &p, nil
}

// digestRecorder is an obs.Sink that snapshots the hierarchy's
// observable digest at the instant of every rollback — the moment an
// attacker in the oracle's threat model gets to measure.
type digestRecorder struct {
	hier    *mem.Hierarchy
	digests []uint64
}

func (r *digestRecorder) Attach(model string, occNames []string)                                {}
func (r *digestRecorder) CycleState(now uint64, mode string, executed, replayed int, occ []int) {}
func (r *digestRecorder) SpanBegin(now uint64, cat, name string, id uint64)                     {}
func (r *digestRecorder) SpanEnd(now uint64, cat string, id uint64)                             {}
func (r *digestRecorder) Span(start, end uint64, cat, name string)                              {}

func (r *digestRecorder) Event(now uint64, cat, name, detail string) {
	if cat == "checkpoint" && name == "rollback" {
		r.digests = append(r.digests, r.hier.ObservableDigest(now))
	}
}
