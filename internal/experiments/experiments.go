// Package experiments regenerates every table and figure of the
// reproduced evaluation (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for measured results). Each experiment is a pure
// function from a workload Scale to one or more printable tables plus
// machine-readable rows that the tests assert on.
package experiments

import (
	"bytes"
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"rocksim/internal/cpu"
	"rocksim/internal/obs"
	"rocksim/internal/sim"
	"rocksim/internal/stats"
	"rocksim/internal/workload"
)

// Result is one regenerated artifact (a paper table or figure).
type Result struct {
	ID     string // e.g. "F1"
	Title  string
	Tables []*stats.Table
	// Notes carry headline observations (also asserted by tests).
	Notes []string
	// Errs lists the attributed failures of cells that could not be
	// computed (watchdog trips, panics). The corresponding table cells
	// render as ERR(reason); the rest of the table is real data.
	Errs []string
}

// Fprint renders the result.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "---- %s: %s ----\n", r.ID, r.Title)
	for _, t := range r.Tables {
		t.Fprint(w)
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, e := range r.Errs {
		fmt.Fprintf(w, "ERR: %s\n", e)
	}
}

// PanicError is a panic recovered from a simulation cell, carrying the
// panicking goroutine's stack so a crashing model is attributable from
// the experiment report alone.
type PanicError struct {
	Value any
	Stack []byte
}

func (p *PanicError) Error() string { return fmt.Sprintf("panic: %v", p.Value) }

// errCell renders a failed cell for a table: a short ERR(reason) tag in
// place of the number, with ErrClass's reason.
func errCell(err error) string {
	return "ERR(" + ErrClass(err) + ")"
}

// fillErr appends n ERR(reason) cells to a table row whose simulation
// failed, so the row keeps its column count.
func fillErr(row []any, n int, err error) []any {
	for j := 0; j < n; j++ {
		row = append(row, errCell(err))
	}
	return row
}

// collectErrs flattens per-cell errors into attributed report lines,
// deduplicating (shared cache entries surface one failure many times).
func collectErrs(errs []error) []string {
	var out []string
	seen := make(map[string]bool)
	for _, err := range errs {
		if err == nil || seen[err.Error()] {
			continue
		}
		seen[err.Error()] = true
		out = append(out, err.Error())
	}
	return out
}

// FprintCharts renders each table row as a horizontal bar chart —
// terminal-friendly figure output.
func (r *Result) FprintCharts(w io.Writer) {
	for _, t := range r.Tables {
		for _, ch := range stats.ChartsFromTable(t) {
			ch.Fprint(w, 40)
			fmt.Fprintln(w)
		}
	}
}

// Runner runs experiments with caching of cell runs, so that
// experiments sharing a (machine shape, programs, options) run do not
// repeat it. It is safe for concurrent use: drivers submit their grid
// cells to a worker pool bounded by SetJobs, and concurrent requests for
// the same cell — within one experiment or across experiments racing on
// a shared Runner — deduplicate onto a single simulation (singleflight).
type Runner struct {
	mu      sync.Mutex
	jobs    int
	sem     chan struct{}
	base    sim.Options
	hasBase bool

	// cache holds every in-flight cell and the runCacheCap most recently
	// used settled ones; lru orders the settled ones, most recently used
	// first. An in-flight entry is never on lru, so it is never evicted.
	cache map[string]*cacheEntry
	lru   list.List

	// hits counts cell requests answered from the cache (including
	// singleflight sharers that waited on an in-flight compute); misses
	// counts requests that had to compute. Read via CacheStats.
	// evictions counts settled entries dropped for capacity (CacheSize).
	hits, misses, evictions uint64

	// pool recycles fully constructed simulators across cache misses,
	// keyed by (machine shape, options shape); see pool.go. Cache misses
	// that share a shape skip the whole construction cost and only pay
	// for a reset. It is the process-wide instances, shared by every
	// Runner; poolReused and poolBuilt count this Runner's share of its
	// traffic (PoolStats).
	pool                  *simPool
	poolReused, poolBuilt atomic.Uint64

	// computeFn, when non-nil, replaces the compute function for cache
	// fills. Test seam: the retry/singleflight tests inject counting and
	// panicking computes without needing a crashing simulator.
	computeFn ComputeBackend
}

// runCacheCap is the number of settled cells a Runner's run cache
// keeps; the least recently used one is evicted beyond it. It is sized
// by the reuse distances of the test-scale grid: one jobs-1 Runner
// regenerating every experiment (All) touches 342 distinct keys and
// gets 219 hits, the farthest of them 225 distinct keys after the
// key's previous use. An LRU of 256 keeps all 219 hits and recomputes
// nothing; 192 recomputes 3 cells and 128 recomputes 25. rockbench's
// gate-hit uses 21 cells, and run-stall and run-compute never hit, so a
// long-lived rocksimd holds at most 256 outcomes (about 23 KB each for
// sst on gcc) whatever it is sent.
const runCacheCap = 256

// cacheEntry is one cell of the run cache. The first requester computes
// the outcome and closes done; every other requester blocks on done and
// reads the shared result. The outcome's rendered report is kept beside
// it, rendered by the first caller of report. A requester holding an
// entry keeps its outcome and body after the cache evicts it.
type cacheEntry struct {
	key  string
	elem *list.Element // place on Runner.lru once settled; nil in flight
	done chan struct{}
	out  sim.Outcome
	err  error

	render  sync.Once
	body    []byte
	bodyErr error
}

// report returns the entry's outcome as sim.NewReport(out).WriteJSON
// writes it, rendering it once for the entry's life. Call it only after
// done is closed and only for an entry without err.
func (e *cacheEntry) report() ([]byte, error) {
	e.render.Do(func() {
		var buf bytes.Buffer
		e.bodyErr = sim.NewReport(e.out).WriteJSON(&buf)
		e.body = buf.Bytes()
	})
	return e.body, e.bodyErr
}

// NewRunner returns a Runner with one worker per available CPU.
func NewRunner() *Runner {
	return &Runner{jobs: runtime.GOMAXPROCS(0), cache: make(map[string]*cacheEntry), pool: &instances}
}

// SetJobs bounds the worker pool to n concurrent simulation runs
// (the -j flag of cmd/sstbench). n < 1 resets to one per CPU. Results
// are assembled in presentation order regardless of n, so output is
// byte-identical to a SetJobs(1) run.
func (r *Runner) SetJobs(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	r.mu.Lock()
	r.jobs = n
	r.sem = nil // re-sized on next use
	r.mu.Unlock()
}

// Jobs returns the worker-pool bound.
func (r *Runner) Jobs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs
}

// SetBaseOptions sets the sim.Options every experiment starts from
// (drivers still apply their per-cell overrides on top). This is how
// cmd/sstbench threads -faults and -timeout into the whole grid.
func (r *Runner) SetBaseOptions(o sim.Options) {
	r.mu.Lock()
	r.base, r.hasBase = o, true
	r.mu.Unlock()
}

// BaseOptions returns the options experiments start from:
// sim.DefaultOptions unless SetBaseOptions overrode them.
func (r *Runner) BaseOptions() sim.Options {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hasBase {
		return r.base
	}
	return sim.DefaultOptions()
}

// semaphore returns the pool's shared slot channel, sized to the
// current job bound. Sharing one semaphore across concurrent forEach
// calls keeps the bound global to the Runner, not per call.
func (r *Runner) semaphore() chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sem == nil {
		r.sem = make(chan struct{}, r.jobs)
	}
	return r.sem
}

// forEachErrs runs job(0..n-1) on the bounded worker pool, waits for
// ALL of them regardless of individual failures, and returns the
// per-job errors (nil entries on success). A panicking job is recovered
// into a *PanicError and retried once — a crash in one cell degrades
// that cell, never the whole experiment or the process.
func (r *Runner) forEachErrs(n int, job func(i int) error) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	sem := r.semaphore()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = runJob(i, job)
		}(i)
	}
	wg.Wait()
	return errs
}

// runJob executes one pool job, converting a panic into an error and
// retrying once: transient crashes (a scheduling-dependent model bug)
// get a second chance, deterministic ones fail the cell attributably.
func runJob(i int, job func(i int) error) error {
	err := recoverJob(i, job)
	var pe *PanicError
	if errors.As(err, &pe) {
		err = recoverJob(i, job)
	}
	return err
}

// recoverJob runs job(i), mapping a panic to a *PanicError carrying the
// stack.
func recoverJob(i int, job func(i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("cell %d: %w", i, &PanicError{Value: v, Stack: debug.Stack()})
		}
	}()
	return job(i)
}

// cell is one grid point of an experiment: a simulation and the
// options it runs under.
type cell struct {
	sim  sim.Cell
	opts sim.Options
}

// coreCell is the grid point running workload w on one kind-k core.
func coreCell(k sim.Kind, w *workload.Spec, opts sim.Options) cell {
	return cell{sim.CoreCell(k, w.Program), opts}
}

// grid is the outcome of an experiment's cells laid out by (row,
// column). Drivers read it back by coordinate; only the grid knows the
// order the cells ran in.
type grid struct {
	rows, cols int
	outs       []sim.Outcome
	errs       []error
}

// runGrid executes the rows x cols cells that cellAt builds on the
// worker pool. Cells are built and submitted in row-major order, and the
// outcomes are read back by coordinate, so tables assemble in
// presentation order independent of completion order. Failures are
// per-cell: a failed cell reads back with its error and renders as
// errCell; the other cells are computed regardless.
func (r *Runner) runGrid(rows, cols int, cellAt func(row, col int) cell) *grid {
	cells := make([]cell, 0, rows*cols)
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			cells = append(cells, cellAt(row, col))
		}
	}
	g := &grid{rows: rows, cols: cols, outs: make([]sim.Outcome, len(cells))}
	g.errs = r.forEachErrs(len(cells), func(i int) error {
		out, err := r.run(cells[i].sim, cells[i].opts)
		g.outs[i] = out
		return err
	})
	return g
}

// at returns the outcome of cell (row, col); a non-nil error means the
// outcome is invalid.
func (g *grid) at(row, col int) (*sim.Outcome, error) {
	i := row*g.cols + col
	return &g.outs[i], g.errs[i]
}

// rowErr returns the first failure among row's cells, or nil.
func (g *grid) rowErr(row int) error {
	for _, err := range g.errs[row*g.cols : (row+1)*g.cols] {
		if err != nil {
			return err
		}
	}
	return nil
}

// row appends row's columns to vals, in column order: the values val
// returns for a computed cell, or width ERR cells for a failed one.
func (g *grid) row(vals []any, row, width int, val func(col int, out *sim.Outcome) []any) []any {
	for col := 0; col < g.cols; col++ {
		out, err := g.at(row, col)
		if err != nil {
			vals = fillErr(vals, width, err)
			continue
		}
		vals = append(vals, val(col, out)...)
	}
	return vals
}

// table adds one table row per grid row: label(row), then one value per
// column, val of the cell's outcome or its ERR cell.
func (g *grid) table(t *stats.Table, label func(row int) any, val func(out *sim.Outcome) float64) {
	for row := 0; row < g.rows; row++ {
		t.AddRow(g.row([]any{label(row)}, row, 1, func(_ int, out *sim.Outcome) []any {
			return []any{val(out)}
		})...)
	}
}

// errLines returns the attributed report lines of every failed cell of
// gs, in cell order and deduplicated across all of them.
func errLines(gs ...*grid) []string {
	var errs []error
	for _, g := range gs {
		errs = append(errs, g.errs...)
	}
	return collectErrs(errs)
}

// cacheKey derives the run-cache key from the cell's full contents: the
// machine shape, every program's content digest (image and secret
// declarations, asm.Program.Digest), a shared chip's entry points, the
// leak-check flag and every option that can change a run of the cell's
// kind (sim.Options.KindFingerprint). Call sites never encode varied
// options into hand-written key strings, so two cells that run the same
// simulation always share one cache slot and two that differ never
// collide. A built program hashes its image once, so keying a cell
// costs the same whatever its programs' sizes.
func cacheKey(c sim.Cell, opts sim.Options) string {
	h := fnv.New64a()
	for _, p := range c.Progs {
		d := p.Digest()
		h.Write(d[:])
	}
	var buf [8]byte
	for _, e := range c.Entries {
		binary.LittleEndian.PutUint64(buf[:], e)
		h.Write(buf[:])
	}
	io.WriteString(h, opts.KindFingerprint(c.Kind))
	shape := c.Shape().String()
	if c.LeakCheck {
		shape += " leak-check"
	}
	return fmt.Sprintf("%s|%s|%016x", shape, c.Desc(), h.Sum64())
}

// run executes cell c with options opts, deduplicating identical cells
// through the content-addressed cache. Concurrent requests for an
// in-flight cell block until the first requester finishes
// (singleflight), so shared cells are computed once.
func (r *Runner) run(c sim.Cell, opts sim.Options) (sim.Outcome, error) {
	e := r.entry(context.Background(), c, opts)
	return e.out, e.err
}

// entry returns cell c's settled cache entry, computing it on a miss and
// waiting for an in-flight compute on a join. The context carries the
// request's tracer (see internal/obs StartSpan), never simulation
// inputs: a cell's cache key and outcome are identical with tracing on
// or off. The span shapes are part of the service contract — a request
// that computes gets cache-lookup and compute spans; a request that
// joins an in-flight compute gets cache-lookup and cache-join, never a
// duplicate compute.
func (r *Runner) entry(ctx context.Context, c sim.Cell, opts sim.Options) *cacheEntry {
	ck := cacheKey(c, opts)
	_, ls := obs.StartSpan(ctx, "cache-lookup")
	r.mu.Lock()
	if e, ok := r.cache[ck]; ok {
		r.hits++
		if e.elem != nil {
			r.lru.MoveToFront(e.elem)
		}
		r.mu.Unlock()
		ls.SetAttr("hit", "true")
		ls.End()
		select {
		case <-e.done:
		default:
			// Singleflight: another requester is computing this cell.
			_, js := obs.StartSpan(ctx, "cache-join")
			<-e.done
			js.End()
		}
		return e
	}
	r.misses++
	fn := r.computeFn
	e := &cacheEntry{key: ck, done: make(chan struct{})}
	r.cache[ck] = e
	r.mu.Unlock()
	ls.SetAttr("hit", "false")
	ls.End()
	if fn == nil {
		fn = r.compute
	}
	// The compute outlives the requester's cancellation scope:
	// singleflight sharers depend on this fill, so a disconnecting
	// originator must not abort it. Tracer values still flow.
	cctx, cs := obs.StartSpan(context.WithoutCancel(ctx), "compute")
	// Settle on every path: sharers block on done until it closes.
	defer func() {
		if e.err != nil {
			cs.SetAttr("err", e.err.Error())
		}
		cs.End()
		r.settle(e)
		close(e.done)
	}()
	cs.SetAttr("kind", c.Kind.String())
	cs.SetAttr("workload", c.Desc())
	e.out, e.err = recoverCompute(cctx, fn, c, opts)
	var pe *PanicError
	if errors.As(e.err, &pe) {
		// One bounded retry on a crash; a deterministic panic fails the
		// cell for every sharer, with the stack preserved in the error.
		cs.SetAttr("retried", "panic")
		e.out, e.err = recoverCompute(cctx, fn, c, opts)
	}
	return e
}

// recoverCompute runs one compute, turning a raw panic — a backend
// installed with SetComputeBackend need not recover its own — into a
// *PanicError carrying the stack, as the Runner's own compute does.
func recoverCompute(ctx context.Context, fn ComputeBackend, c sim.Cell, opts sim.Options) (out sim.Outcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			out, err = sim.Outcome{}, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, c, opts)
}

// settle files a computed entry as the cache's most recently used,
// evicting the least recently used settled entry beyond runCacheCap. An
// entry that failed on its wall-clock deadline is dropped instead: the
// deadline belongs to that attempt, not to the cell, so requesters
// already joined on it get the error and the next request computes
// afresh. Every other error is a property of the cell and stays cached.
func (r *Runner) settle(e *cacheEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if errors.Is(e.err, cpu.ErrDeadline) {
		delete(r.cache, e.key)
		return
	}
	e.elem = r.lru.PushFront(e)
	if r.lru.Len() > runCacheCap {
		old := r.lru.Remove(r.lru.Back()).(*cacheEntry)
		delete(r.cache, old.key)
		r.evictions++
	}
}

// RunCell runs one cell with the Runner's full machinery: the request
// takes a worker-pool slot (so concurrent callers respect the SetJobs
// bound), deduplicates through the content-addressed cache, and
// recovers a crashing model into an attributed *PanicError with one
// bounded retry. This is the cell-level entry point the service
// front-end uses; grids go through Run.
func (r *Runner) RunCell(c sim.Cell, opts sim.Options) (sim.Outcome, error) {
	out, _, err := r.RunCellReport(context.Background(), c, opts)
	return out, err
}

// RunCellReport is RunCell under a caller context, adding the request-
// scoped spans: queue-wait covers the worker-pool admission, then the
// cache/compute spans from entry. Tracing changes no outcome — the
// context carries only observability state. On success, report returns
// the outcome rendered as sim.NewReport(out).WriteJSON writes it
// (rocksimd's /v1/run body). The bytes belong to the cell's cache entry:
// the first call for the entry renders them, and every later call, from
// any request that reaches the same entry, returns the stored bytes,
// which callers must not modify.
func (r *Runner) RunCellReport(ctx context.Context, c sim.Cell, opts sim.Options) (out sim.Outcome, report func() ([]byte, error), err error) {
	sem := r.semaphore()
	_, qs := obs.StartSpan(ctx, "queue-wait")
	sem <- struct{}{}
	qs.End()
	defer func() { <-sem }()
	var e *cacheEntry
	err = runJob(0, func(int) error {
		e = r.entry(ctx, c, opts)
		return e.err
	})
	if e == nil {
		return sim.Outcome{}, nil, err
	}
	return e.out, e.report, err
}

// CacheStats reports run-cache traffic since the Runner was created:
// hits (requests answered from a completed or in-flight cell) and
// misses (requests that computed).
func (r *Runner) CacheStats() (hits, misses uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits, r.misses
}

// CacheSize reports the run cache's occupancy: the entries it holds
// (settled and in flight) and the settled entries it has evicted for
// capacity since the Runner was created.
func (r *Runner) CacheSize() (entries int, evictions uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache), r.evictions
}

// All lists every experiment id in presentation order.
var All = []string{"T1", "T2", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15", "F16", "S1", "B1", "T3"}

// Run dispatches one experiment by id.
func (r *Runner) Run(id string, scale workload.Scale) (*Result, error) {
	switch id {
	case "T1":
		return ConfigTable(), nil
	case "T2":
		return r.WorkloadTable(scale)
	case "F1":
		return r.PerfComparison(scale)
	case "F2":
		return r.ModeBreakdown(scale)
	case "F3":
		return r.DQSweep(scale)
	case "F4":
		return r.CheckpointSweep(scale)
	case "F5":
		return r.SSBSweep(scale)
	case "F6":
		return r.MemLatencySweep(scale)
	case "F7":
		return r.MLPComparison(scale)
	case "F8":
		return r.Ablation(scale)
	case "F9":
		return r.CMPScaling(scale)
	case "F10":
		return r.RollbackAccounting(scale)
	case "F11":
		return r.BranchSweep(scale)
	case "F12":
		return r.SMTMode(scale)
	case "F13":
		return r.PolicyAblation(scale)
	case "F14":
		return r.PrefetchInterplay(scale)
	case "F15":
		return r.TLBSensitivity(scale)
	case "F16":
		return r.HTMContention(scale)
	case "S1":
		return r.SecurityGrid(scale)
	case "B1":
		return r.BpredGrid(scale)
	case "T3":
		return AreaPowerProxy(), nil
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}
