package obs

// Sink receives the event stream of a running model: every core model
// and the memory hierarchy are observed through this one interface
// (the SST pipeline viewer core.PipeView is a Sink too). All hooks are
// optional-cost: a model emits nothing when its sink is nil, and the
// per-cycle hook passes only interned strings and a scratch slice, so
// the enabled path allocates nothing per cycle either.
//
// Conventions:
//
//   - cat is a small closed set of event categories ("mode",
//     "checkpoint", "memory", "tx", "scout", "commit", "rollback", ...);
//   - ids correlate SpanBegin/SpanEnd pairs within a category (the SST
//     core uses the checkpoint's opening sequence number);
//   - Span reports an interval whose start and end are both known at
//     emission time (memory-miss latencies).
type Sink interface {
	// Attach is called once when the sink is installed on a model, with
	// the model's name and the names of the occupancy channels it will
	// pass to CycleState.
	Attach(model string, occNames []string)
	// CycleState is called at the end of every cycle. mode is the
	// model's operating mode ("" for modeless cores); executed and
	// replayed are the per-strand instruction counts for the cycle; occ
	// holds the occupancy channels declared by Attach. The slice is
	// scratch owned by the caller: sinks must not retain it.
	CycleState(now uint64, mode string, executed, replayed int, occ []int)
	// Event records an instantaneous named event.
	Event(now uint64, cat, name, detail string)
	// SpanBegin opens a duration identified by (cat, id).
	SpanBegin(now uint64, cat, name string, id uint64)
	// SpanEnd closes the duration opened under (cat, id).
	SpanEnd(now uint64, cat string, id uint64)
	// Span records a completed interval [start, end).
	Span(start, end uint64, cat, name string)
}

// BulkSink is an optional Sink extension for the fast-forward path: a
// model that skips a run of identical stalled cycles reports them in one
// call instead of one CycleState call per cycle. The contract is exact
// equivalence — CycleRun(start, end, mode, occ) must leave the sink in
// the state that calling CycleState(n, mode, 0, 0, occ) for every n in
// [start, end) would. EmitCycleRun falls back to exactly that loop for
// sinks that do not implement the extension, so bit-identity never
// depends on a sink opting in.
type BulkSink interface {
	CycleRun(start, end uint64, mode string, occ []int)
}

// EmitCycleRun reports a run of identical zero-progress cycles
// [start, end) to s, using the BulkSink fast path when s implements it.
// A nil sink and an empty run are no-ops.
func EmitCycleRun(s Sink, start, end uint64, mode string, occ []int) {
	if s == nil || start >= end {
		return
	}
	if bs, ok := s.(BulkSink); ok {
		bs.CycleRun(start, end, mode, occ)
		return
	}
	for n := start; n < end; n++ {
		s.CycleState(n, mode, 0, 0, occ)
	}
}

// Tee fans one event stream out to several sinks, skipping nils.
// It returns nil when no non-nil sink remains (so models keep their
// zero-cost disabled path) and the sink itself when only one remains.
func Tee(sinks ...Sink) Sink {
	live := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return tee(live)
}

type tee []Sink

func (t tee) Attach(model string, occNames []string) {
	for _, s := range t {
		s.Attach(model, occNames)
	}
}

func (t tee) CycleState(now uint64, mode string, executed, replayed int, occ []int) {
	for _, s := range t {
		s.CycleState(now, mode, executed, replayed, occ)
	}
}

// CycleRun implements BulkSink by dispatching per sub-sink, so a tee of
// a Collector and a PipeView bulk-credits the former and replays the
// per-cycle loop only for the latter.
func (t tee) CycleRun(start, end uint64, mode string, occ []int) {
	for _, s := range t {
		EmitCycleRun(s, start, end, mode, occ)
	}
}

func (t tee) Event(now uint64, cat, name, detail string) {
	for _, s := range t {
		s.Event(now, cat, name, detail)
	}
}

func (t tee) SpanBegin(now uint64, cat, name string, id uint64) {
	for _, s := range t {
		s.SpanBegin(now, cat, name, id)
	}
}

func (t tee) SpanEnd(now uint64, cat string, id uint64) {
	for _, s := range t {
		s.SpanEnd(now, cat, id)
	}
}

func (t tee) Span(start, end uint64, cat, name string) {
	for _, s := range t {
		s.Span(start, end, cat, name)
	}
}

// Collector is the standard Sink: it feeds a Trace (for Chrome export)
// and/or a Registry (occupancy timelines) from the model event stream.
// Either destination may be nil. SampleEvery decimates the per-cycle
// occupancy channels into counter tracks and timelines; span and event
// traffic is never decimated.
type Collector struct {
	Trace       *Trace
	Reg         *Registry
	SampleEvery uint64

	model      string
	occNames   []string
	timelines  []*Timeline
	lastMode   string
	modeStart  uint64
	haveMode   bool
	nextSample uint64
	lastCycle  uint64
}

// NewCollector returns a Collector over the given destinations with the
// default sample rate.
func NewCollector(t *Trace, r *Registry) *Collector {
	c := &Collector{Trace: t, Reg: r, SampleEvery: DefaultSampleEvery}
	if r != nil {
		c.SampleEvery = r.SampleEvery()
	}
	return c
}

// Attach implements Sink.
func (c *Collector) Attach(model string, occNames []string) {
	c.model = model
	c.occNames = occNames
	c.timelines = nil
	if c.Reg != nil {
		for _, n := range occNames {
			c.timelines = append(c.timelines, c.Reg.Timeline(model+"/occ/"+n))
		}
	}
	if c.SampleEvery < 1 {
		c.SampleEvery = DefaultSampleEvery
	}
}

// CycleState implements Sink: it turns mode changes into trace spans and
// decimates occupancy channels into counter samples and timelines.
func (c *Collector) CycleState(now uint64, mode string, executed, replayed int, occ []int) {
	c.lastCycle = now
	if mode != c.lastMode || !c.haveMode {
		if c.haveMode && c.Trace != nil && c.lastMode != "" {
			c.Trace.Span(c.modeStart, now, "mode", c.lastMode)
		}
		c.lastMode = mode
		c.modeStart = now
		c.haveMode = true
	}
	if now < c.nextSample {
		return
	}
	c.nextSample = now + c.SampleEvery
	for i, v := range occ {
		if i < len(c.timelines) {
			c.timelines[i].Sample(now, int64(v))
		}
		if c.Trace != nil && i < len(c.occNames) {
			c.Trace.CounterSample(now, c.model+"/"+c.occNames[i], int64(v))
		}
	}
}

// CycleRun implements BulkSink: the whole run shares one mode and one
// occupancy vector, so the mode-span bookkeeping runs once and only the
// decimated sample cycles inside [start, end) are materialized. The
// samples land on exactly the cycles the naive per-cycle loop would
// pick, leaving nextSample in the identical state.
func (c *Collector) CycleRun(start, end uint64, mode string, occ []int) {
	if start >= end {
		return
	}
	c.lastCycle = end - 1
	if mode != c.lastMode || !c.haveMode {
		if c.haveMode && c.Trace != nil && c.lastMode != "" {
			c.Trace.Span(c.modeStart, start, "mode", c.lastMode)
		}
		c.lastMode = mode
		c.modeStart = start
		c.haveMode = true
	}
	step := c.SampleEvery
	if step == 0 {
		step = 1 // unattached collector: CycleState samples every cycle
	}
	n := c.nextSample
	if n < start {
		n = start
	}
	for ; n < end; n += step {
		c.nextSample = n + step
		for i, v := range occ {
			if i < len(c.timelines) {
				c.timelines[i].Sample(n, int64(v))
			}
			if c.Trace != nil && i < len(c.occNames) {
				c.Trace.CounterSample(n, c.model+"/"+c.occNames[i], int64(v))
			}
		}
	}
}

// Event implements Sink.
func (c *Collector) Event(now uint64, cat, name, detail string) {
	if c.Trace != nil {
		c.Trace.Instant(now, cat, name, detail)
	}
}

// SpanBegin implements Sink.
func (c *Collector) SpanBegin(now uint64, cat, name string, id uint64) {
	if c.Trace != nil {
		c.Trace.Begin(now, cat, name, id)
	}
}

// SpanEnd implements Sink.
func (c *Collector) SpanEnd(now uint64, cat string, id uint64) {
	if c.Trace != nil {
		c.Trace.End(now, cat, id)
	}
}

// Span implements Sink.
func (c *Collector) Span(start, end uint64, cat, name string) {
	if c.Trace != nil {
		c.Trace.Span(start, end, cat, name)
	}
}

// Flush closes the open mode span and any still-open trace spans at the
// end of a run. Call it once, after the simulation finishes, with the
// final cycle count.
func (c *Collector) Flush(finalCycle uint64) {
	if finalCycle < c.lastCycle {
		finalCycle = c.lastCycle
	}
	if c.haveMode && c.Trace != nil && c.lastMode != "" {
		c.Trace.Span(c.modeStart, finalCycle, "mode", c.lastMode)
		c.haveMode = false
	}
	if c.Trace != nil {
		c.Trace.CloseOpen(finalCycle)
	}
}
