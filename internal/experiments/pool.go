package experiments

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"rocksim/internal/sim"
)

// simPool hands out reusable sim.Instances keyed by (machine shape,
// options shape): the full machine — functional memories, cache
// hierarchy, branch predictors, core models, for one core, an SMT pair
// or a chip — is constructed once per shape and reset between runs,
// instead of reallocated per run (~8.6k allocations for one core).
// Shapes are keyed by sim.PoolKey, which covers exactly the
// construction-affecting options; per-run options (programs, watchdogs,
// faults, observability) are applied by Instance.Run, so two cells
// differing only in those share one sync.Pool. A single-core instance
// serves every core kind, so the pool key of a single core leaves the
// kind out and all seven kinds of one options shape share one machine.
// Each instance serves one run at a time; the GC reclaims idle ones,
// which is the correct behavior for a cache of reconstructible
// machines.
//
// The pool belongs to the process (instances), not to a Runner: a new
// Runner — a service set-up, a grid pass — reuses the idle machines a
// finished one left behind instead of building its own beside them.
//
// Only the maxShapes most recently used shapes keep a pool. An instance
// holds megabytes (the default L2's tag store alone is 2 MB) and a grid
// touches dozens of shapes once each — chips and SMT pairs among them —
// so an evicted shape's idle instances are drained into garbage at once
// instead of surviving, pooled, into the GC's next cycles.
type simPool struct {
	mu     sync.Mutex
	shapes []pooledShape // least recently used first
}

type pooledShape struct {
	key  string
	pool *sync.Pool
}

// instances is the process's simulator pool, which every Runner draws
// from.
var instances simPool

// maxShapes bounds the shapes a pool keeps: the shapes one experiment
// sweeps at a time — S1's five secure modes, a sweep's handful of sizes,
// the SMT pairs and chips beside a single core's shape — so that
// consecutive cells of one experiment rarely rebuild a machine.
const maxShapes = 8

// shape returns key's pool, marking it most recently used. A new key
// beyond maxShapes evicts the least recently used shape, draining its
// idle instances. Called with p.mu held.
func (p *simPool) shape(key string) *sync.Pool {
	for i := len(p.shapes) - 1; i >= 0; i-- {
		if ps := p.shapes[i]; ps.key == key {
			copy(p.shapes[i:], p.shapes[i+1:])
			p.shapes[len(p.shapes)-1] = ps
			return ps.pool
		}
	}
	if len(p.shapes) == maxShapes {
		for p.shapes[0].pool.Get() != nil {
		}
		copy(p.shapes, p.shapes[1:])
		p.shapes = p.shapes[:maxShapes-1]
	}
	sp := &sync.Pool{}
	p.shapes = append(p.shapes, pooledShape{key, sp})
	return sp
}

// get returns a ready instance for the cell's shape and whether it was
// recycled: a pooled one when the pool has one idle, a freshly built
// one otherwise.
func (p *simPool) get(s sim.Shape, opts sim.Options) (in *sim.Instance, reused bool, err error) {
	key := sim.PoolKey(s, opts)
	p.mu.Lock()
	sp := p.shape(key)
	p.mu.Unlock()
	if in, _ := sp.Get().(*sim.Instance); in != nil {
		return in, true, nil
	}
	in, err = sim.NewInstance(s, opts)
	return in, false, err
}

// put returns an instance to its shape's pool after a successful (or
// cleanly errored) run. Callers must NOT put back an instance whose run
// panicked: a panic can leave the machine in an arbitrary state, and
// the pool's contract is that every instance it hands out is
// indistinguishable from freshly built. compute enforces this by
// putting only on the non-panic path.
func (p *simPool) put(s sim.Shape, opts sim.Options, in *sim.Instance) {
	key := sim.PoolKey(s, opts)
	p.mu.Lock()
	sp := p.shape(key)
	p.mu.Unlock()
	sp.Put(in)
}

// PoolStats reports the Runner's simulator-pool traffic since it was
// created: reused (its runs served by a recycled instance, whichever
// Runner left it idle) and built (instance constructions for its runs).
func (r *Runner) PoolStats() (reused, built uint64) {
	return r.poolReused.Load(), r.poolBuilt.Load()
}

// compute runs one simulation cell on a pooled instance, converting a
// panic inside the model into an attributed error. Recovering here (not
// just in the worker pool) guarantees the cache entry's done channel
// closes even when the simulator crashes — a panicking cell must never
// deadlock the singleflight sharers blocked on it. A panicked instance
// is dropped, never pooled; a run that merely errored (watchdog trip)
// is fully cleared by the next Reset and goes back.
//
// Instance.Run returns an outcome whose statistics are a snapshot
// detached from the live machine, so the run cache and its consumers
// (reports, registries, the service layer) hold exact frozen figures
// while the live instance is reset and reused.
func (r *Runner) compute(ctx context.Context, c sim.Cell, opts sim.Options) (out sim.Outcome, err error) {
	s := c.Shape()
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("experiments: %v on %s: %w", s, c.Desc(),
				&PanicError{Value: v, Stack: debug.Stack()})
		}
	}()
	in, reused, err := r.pool.get(s, opts)
	if err != nil {
		return sim.Outcome{}, fmt.Errorf("experiments: %v on %s: %w", s, c.Desc(), err)
	}
	if reused {
		r.poolReused.Add(1)
	} else {
		r.poolBuilt.Add(1)
	}
	out, err = in.Run(ctx, c, opts)
	r.pool.put(s, opts, in)
	if err != nil {
		err = fmt.Errorf("experiments: %v on %s: %w", s, c.Desc(), err)
	}
	return out, err
}
