package core

import (
	"fmt"
	"io"
	"strings"

	"rocksim/internal/obs"
)

// sstOccNames names the occupancy channels the SST core reports to its
// sink, in CycleState occ order.
var sstOccNames = []string{"dq", "ssb", "ckpts", "pend"}

// SetSink installs (or clears, with nil) the core's observability sink.
func (c *Core) SetSink(s obs.Sink) {
	c.sink = s
	if s != nil {
		s.Attach("sst", sstOccNames)
	}
}

// Sink returns the installed sink (nil when observation is disabled).
func (c *Core) Sink() obs.Sink { return c.sink }

// PipeView is an obs.Sink that renders a compact one-line-per-cycle
// pipeline trace of the SST core, in the spirit of pipetrace viewers:
//
//	cycle   mode  A R |DQ......  |SSB..    |CK##    events
//
// A/R columns show ahead-strand and replay-strand instruction counts for
// the cycle; the bars show queue occupancies. It renders only while
// attached to the "sst" model, so teeing it onto a run's sink leaves
// other core models (and span traffic) silent.
type PipeView struct {
	W io.Writer
	// MaxCycles stops output after this many cycles (0 = unlimited).
	MaxCycles uint64
	// OnlyEvents suppresses per-cycle lines, printing events only.
	OnlyEvents bool

	on   bool // attached to the SST core
	done bool // cap reached: short-circuit all further work
}

// Attach implements obs.Sink.
func (v *PipeView) Attach(model string, _ []string) { v.on = model == "sst" }

// CycleState implements obs.Sink; occ is in sstOccNames order.
func (v *PipeView) CycleState(now uint64, mode string, executed, replayed int, occ []int) {
	if !v.on || v.done || v.OnlyEvents {
		return
	}
	if v.MaxCycles > 0 && now >= v.MaxCycles {
		v.done = true
		return
	}
	bar := func(n, width int) string {
		if n > width {
			n = width
		}
		return strings.Repeat("#", n) + strings.Repeat(".", width-n)
	}
	fmt.Fprintf(v.W, "%8d %-7s A%d R%d |DQ%s|SSB%s|CK%s|M%d\n",
		now, mode, executed, replayed,
		bar(occ[0]/4, 16), bar(occ[1]/2, 8), bar(occ[2], 4), occ[3])
}

// Event implements obs.Sink.
func (v *PipeView) Event(now uint64, _, name, detail string) {
	if !v.on || v.done {
		return
	}
	if v.MaxCycles > 0 && now >= v.MaxCycles {
		v.done = true
		return
	}
	fmt.Fprintf(v.W, "%8d * %-10s %s\n", now, name, detail)
}

// SpanBegin implements obs.Sink; spans are not rendered.
func (v *PipeView) SpanBegin(uint64, string, string, uint64) {}

// SpanEnd implements obs.Sink.
func (v *PipeView) SpanEnd(uint64, string, uint64) {}

// Span implements obs.Sink.
func (v *PipeView) Span(uint64, uint64, string, string) {}
