package experiments

import (
	"context"
	"errors"
	"fmt"

	"rocksim/internal/asm"
	"rocksim/internal/cpu"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// This file is the cell-level fan-out seam of the experiment harness:
// everything a router (cmd/rockgate) needs to compute a grid's cells on
// remote rocksimd shards while assembling byte-identical tables
// locally.
//
//   - CellKey exposes the content-addressed cache key, so placement on
//     a consistent-hash ring agrees with every shard's run cache: a
//     popular cell lands on one shard and is computed once per fleet.
//   - SetComputeBackend replaces the cache-fill compute function, so a
//     Runner can delegate cell computation (to a shard, or to a test's
//     blocking fake) while keeping the cache, singleflight, worker pool
//     and panic-retry machinery unchanged.
//   - ErrClass / NewRemoteError round-trip a cell's failure — or a
//     leak-check cell's verdict — through the wire so ERR(reason) cells,
//     verdicts and Errs report lines render exactly as they would on a
//     single node.
//   - Program resolves the program names a cell carries on the wire.
//
// Every experiment decomposes into cells — single cores, SMT pairs,
// chips and leak-oracle checks alike — so a router assembles any grid
// itself, cell by cell.

// CellKey returns the content-addressed run-cache key of one cell: FNV
// over each program's content digest (image and secret declarations),
// the machine shape, a shared chip's entry points and the canonical
// fingerprint of the options the cell's kind reads. The fleet router
// hashes this key onto the shard ring, so cache placement and request
// routing agree byte for byte; a shard recomputes it to check that it
// resolved the cell the router meant.
func CellKey(c sim.Cell, opts sim.Options) string {
	return cacheKey(c, opts)
}

// ComputeBackend computes one cell. The default backend simulates
// locally (through the instance pool); a router installs one that asks
// the owning shard instead.
type ComputeBackend func(ctx context.Context, c sim.Cell, opts sim.Options) (sim.Outcome, error)

// SetComputeBackend replaces the Runner's cache-fill compute function.
// Cache keying, singleflight deduplication, the worker-pool bound and
// the bounded panic retry all still apply; only the leaf computation
// changes. Passing nil restores local simulation.
func (r *Runner) SetComputeBackend(fn ComputeBackend) {
	r.mu.Lock()
	r.computeFn = fn
	r.mu.Unlock()
}

// Remote-error classes: the wire form of a failed cell. The class
// selects the ERR(reason) cell text; the message preserves the origin
// shard's error string so the report's Errs lines are byte-identical to
// a single-node run.
const (
	ErrClassLivelock   = "livelock"
	ErrClassCycleLimit = "cycle-limit"
	ErrClassDeadline   = "deadline"
	ErrClassPanic      = "panic"
	ErrClassRunFailed  = "run-failed"
	// ErrClassLeak is a leak-check cell's "leaks" verdict
	// (sim.ErrTransientLeak).
	ErrClassLeak = "leak"
)

// ErrClass classifies a cell error: the reason of its ERR(reason) table
// cell and its wire class. A remote error keeps the class its origin
// shard gave it.
func ErrClass(err error) string {
	var pe *PanicError
	var re *RemoteError
	switch {
	case errors.As(err, &re):
		return re.Class
	case errors.Is(err, sim.ErrTransientLeak):
		return ErrClassLeak
	case errors.Is(err, cpu.ErrLivelock):
		return ErrClassLivelock
	case errors.Is(err, cpu.ErrCycleLimit):
		return ErrClassCycleLimit
	case errors.Is(err, cpu.ErrDeadline):
		return ErrClassDeadline
	case errors.As(err, &pe):
		return ErrClassPanic
	}
	return ErrClassRunFailed
}

// RemoteError is a cell failure reconstructed from its wire form: it
// renders the origin error's exact message and classifies back into the
// same ERR(reason) cell as the origin error would.
type RemoteError struct {
	Class string
	Msg   string
}

// NewRemoteError rebuilds a cell error from its wire class and message.
func NewRemoteError(class, msg string) *RemoteError {
	return &RemoteError{Class: class, Msg: msg}
}

func (e *RemoteError) Error() string { return e.Msg }

// Is maps the wire class back onto the watchdog and verdict sentinels,
// so errors.Is checks (the S1 verdict table, the 504 path in
// internal/serve) treat a remote failure like a local one.
func (e *RemoteError) Is(target error) bool {
	switch e.Class {
	case ErrClassLeak:
		return target == sim.ErrTransientLeak
	case ErrClassLivelock:
		return target == cpu.ErrLivelock
	case ErrClassCycleLimit:
		return target == cpu.ErrCycleLimit
	case ErrClassDeadline:
		return target == cpu.ErrDeadline
	}
	return false
}

// Program resolves a program name the way a shard resolves the names
// of a /v1/cell request: a built-in workload at scale, one of F16's
// contended-counter kernels sized for scale, or a transient-leakage
// gadget. Every one is built once per process and shared, immutable.
func Program(name string, scale workload.Scale) (*asm.Program, error) {
	if _, ok := workload.ByName[name]; ok {
		w, err := workload.Build(name, scale)
		if err != nil {
			return nil, err
		}
		return w.Program, nil
	}
	if _, ok := counterKernels[name]; ok {
		return counterProgram(name, scale)
	}
	gadgets, err := sim.LeakGadgets()
	if err != nil {
		return nil, err
	}
	for _, g := range gadgets {
		if g.Name == name {
			return g, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown program %q", name)
}
