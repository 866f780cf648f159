package experiments

import (
	"context"
	"testing"
	"time"

	"rocksim/internal/obs"
	"rocksim/internal/sim"
)

// spanNames flattens a tracer snapshot into name -> count.
func spanNames(tr *obs.Tracer) map[string]int {
	names := map[string]int{}
	for _, s := range tr.Snapshot() {
		names[s.Name]++
	}
	return names
}

// TestSingleflightSpanNesting pins the span contract for a shared
// cache fill: the originating request owns the single compute span,
// while a joiner that arrives mid-fill records cache-lookup (hit) plus
// cache-join — and never a duplicate compute.
func TestSingleflightSpanNesting(t *testing.T) {
	r := NewRunner()
	r.SetJobs(4)
	spec := testSpec(t)
	started := make(chan struct{})
	release := make(chan struct{})
	r.computeFn = func(_ context.Context, c sim.Cell, o sim.Options) (sim.Outcome, error) {
		close(started)
		<-release
		return sim.Outcome{}, nil
	}

	trA := obs.NewTracer()
	ctxA := obs.WithTracer(context.Background(), trA)
	doneA := make(chan struct{})
	go func() {
		defer close(doneA)
		if _, _, err := r.RunCellReport(ctxA, sim.CoreCell(sim.KindSST, spec.Program), sim.DefaultOptions()); err != nil {
			t.Error(err)
		}
	}()
	<-started

	// B asks for the same cell while A's fill is in flight. Wait until
	// B's cache-join span exists (it is created just before B blocks on
	// the fill), then release the compute.
	trB := obs.NewTracer()
	ctxB := obs.WithTracer(context.Background(), trB)
	doneB := make(chan struct{})
	go func() {
		defer close(doneB)
		if _, _, err := r.RunCellReport(ctxB, sim.CoreCell(sim.KindSST, spec.Program), sim.DefaultOptions()); err != nil {
			t.Error(err)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for spanNames(trB)["cache-join"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("joiner never opened a cache-join span")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-doneA
	<-doneB

	a, b := spanNames(trA), spanNames(trB)
	if a["compute"] != 1 || a["cache-join"] != 0 {
		t.Errorf("originator spans %v, want exactly one compute and no cache-join", a)
	}
	if b["compute"] != 0 || b["cache-join"] != 1 {
		t.Errorf("joiner spans %v, want cache-join and no duplicate compute", b)
	}
	for _, s := range trB.Snapshot() {
		if s.Name != "cache-lookup" {
			continue
		}
		hit := ""
		for _, at := range s.Attrs {
			if at.Key == "hit" {
				hit = at.Value
			}
		}
		if hit != "true" {
			t.Errorf("joiner cache-lookup hit attr %q, want true", hit)
		}
	}

	// C arrives after the fill completed: a plain hit, no join.
	trC := obs.NewTracer()
	ctxC := obs.WithTracer(context.Background(), trC)
	if _, _, err := r.RunCellReport(ctxC, sim.CoreCell(sim.KindSST, spec.Program), sim.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	c := spanNames(trC)
	if c["compute"] != 0 || c["cache-join"] != 0 || c["cache-lookup"] != 1 {
		t.Errorf("post-fill requester spans %v, want a lone cache-lookup hit", c)
	}
}
