package core

import (
	"strings"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/isa"
)

func TestPipeViewRendersCyclesAndEvents(t *testing.T) {
	c, _ := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Ld(isa.OpLd64, 6, 5, 0)
		b.Opi(isa.OpAddi, 7, 6, 1)
		b.Halt()
	})
	var sb strings.Builder
	c.SetSink(&PipeView{W: &sb, MaxCycles: 100000})
	run(t, c, 100_000)
	out := sb.String()
	for _, want := range []string{"checkpoint", "commit", "normal", "spec", "|DQ"} {
		if !strings.Contains(out, want) {
			t.Errorf("pipeview missing %q", want)
		}
	}
}

func TestPipeViewOnlyEvents(t *testing.T) {
	c, _ := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Ld(isa.OpLd64, 6, 5, 0)
		b.Halt()
	})
	var sb strings.Builder
	c.SetSink(&PipeView{W: &sb, OnlyEvents: true})
	run(t, c, 100_000)
	out := sb.String()
	if !strings.Contains(out, "checkpoint") {
		t.Error("events missing")
	}
	if strings.Contains(out, "|DQ") {
		t.Error("per-cycle lines printed in events-only mode")
	}
}

func TestPipeViewMaxCyclesBounds(t *testing.T) {
	c, _ := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 1000)
		b.Label("l")
		b.Opi(isa.OpAddi, 5, 5, -1)
		b.Br(isa.OpBne, 5, isa.RegZero, "l")
		b.Halt()
	})
	var sb strings.Builder
	c.SetSink(&PipeView{W: &sb, MaxCycles: 10})
	run(t, c, 1_000_000)
	lines := strings.Count(sb.String(), "\n")
	if lines > 12 { // 10 cycle lines plus possible early events
		t.Errorf("pipeview printed %d lines beyond the cap", lines)
	}
}
