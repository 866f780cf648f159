// Command rkrun executes an RK64 program on the golden functional
// emulator — no timing, just architecture. It can print a workload
// characterization summary: the instruction mix and data footprint.
//
// Usage:
//
//	rkrun prog.s
//	rkrun -summary prog.s
//	rkrun -workload oltp -summary        # characterize a built-in workload
//	rkrun -workload oltp -metrics m.json # machine-readable counters
package main

import (
	"flag"
	"fmt"
	"os"

	"rocksim/internal/asm"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
	"rocksim/internal/workload"
)

func main() {
	summary := flag.Bool("summary", false, "print a summary (instruction mix, footprint)")
	wl := flag.String("workload", "", "run a built-in workload instead of a source file")
	maxInsts := flag.Uint64("max", 500_000_000, "instruction budget")
	metricsOut := flag.String("metrics", "", "write emulator counters and the mix summary as flat JSON ('-' = stdout)")
	chromeOut := flag.String("chrome-trace", "", "write a Chrome trace_event JSON with instruction-mix counter tracks (ts = instruction index)")
	sampleEvery := flag.Uint64("sample-every", obs.DefaultSampleEvery, "instructions between counter samples in the Chrome trace")
	flag.Parse()
	if args := flag.Args(); len(args) > 1 || *wl != "" && len(args) > 0 {
		fmt.Fprintf(os.Stderr, "rkrun: unexpected argument %q: run one source file or one -workload\n", args[len(args)-1])
		os.Exit(2)
	}

	var prog *asm.Program
	switch {
	case *wl != "":
		w, err := workload.Build(*wl, workload.ScaleTest)
		if err != nil {
			fatal(err)
		}
		prog = w.Program
	case flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		prog, err = asm.Assemble(string(src))
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: rkrun [-summary] (<file.s> | -workload name)")
		os.Exit(2)
	}

	m := mem.NewSparse()
	prog.Load(m)
	emu := isa.NewEmulator(prog.Entry, m)

	// The Chrome trace of a functional run has no cycles; it exports the
	// running instruction mix as counter tracks over instruction index.
	var ctr *obs.Trace
	if *chromeOut != "" {
		ctr = obs.NewTrace()
	}
	every := max(*sampleEvery, 1)
	var next uint64
	c := newMix()
	if *summary || *metricsOut != "" || ctr != nil {
		emu.Hook = func(_ uint64, in isa.Inst, addr uint64) {
			c.count(in, addr)
			if ctr != nil && emu.Executed >= next {
				next = emu.Executed + every
				ctr.CounterSample(emu.Executed, "emu/loads", int64(c.loads))
				ctr.CounterSample(emu.Executed, "emu/stores", int64(c.stores))
				ctr.CounterSample(emu.Executed, "emu/branches", int64(c.branches))
			}
		}
	}

	if err := emu.Run(*maxInsts); err != nil {
		fatal(err)
	}
	fmt.Printf("executed %d instructions, final pc %#x\n", emu.Executed, emu.PC)
	for r := 1; r < isa.NumRegs; r++ {
		if emu.Reg[r] != 0 {
			fmt.Printf("  r%-2d = %#x (%d)\n", r, uint64(emu.Reg[r]), emu.Reg[r])
		}
	}

	if *summary {
		fmt.Printf("mix: %.1f%% loads, %.1f%% stores, %.1f%% branches, %d atomics, %d long ops\n",
			pct(c.loads, c.insts), pct(c.stores, c.insts), pct(c.branches, c.insts), c.atomics, c.longOps)
		fmt.Printf("data footprint: %d lines (%.1f KiB)\n", len(c.lines), float64(len(c.lines))*64/1024)
	}
	if *metricsOut != "" {
		writeMetrics(*metricsOut, emu, c)
	}

	if ctr != nil {
		f := create(*chromeOut)
		if err := ctr.WriteChrome(f); err != nil {
			fatal(err)
		}
		closeOut(f)
	}
}

// mix characterizes an emulator run, counted once from its hook: the
// instruction mix and the data footprint (paper Table 2).
type mix struct {
	insts, loads, stores, branches, atomics, longOps uint64
	// lines holds the distinct 64-byte lines that loads, stores and
	// atomics accessed (footprint proxy).
	lines map[uint64]struct{}
}

func newMix() *mix { return &mix{lines: make(map[uint64]struct{})} }

// count adds one retired instruction; addr is the data address the
// emulator passed its hook.
func (c *mix) count(in isa.Inst, addr uint64) {
	c.insts++
	switch in.Op.Class() {
	case isa.ClassLoad:
		c.loads++
	case isa.ClassStore:
		c.stores++
	case isa.ClassBranch:
		c.branches++
	case isa.ClassAtomic:
		c.atomics++
	}
	if in.Op.IsLongLatency() {
		c.longOps++
	}
	if in.Op.IsMem() && in.Op.Class() != isa.ClassPrefetch {
		c.lines[addr>>6] = struct{}{}
	}
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// writeMetrics publishes the emulator's counters and the run's mix into
// a registry and writes it as flat JSON.
func writeMetrics(path string, emu *isa.Emulator, c *mix) {
	r := obs.NewRegistry()
	r.Counter("emu/executed").Set(emu.Executed)
	r.Counter("emu/insts").Set(c.insts)
	r.Counter("emu/loads").Set(c.loads)
	r.Counter("emu/stores").Set(c.stores)
	r.Counter("emu/branches").Set(c.branches)
	r.Counter("emu/atomics").Set(c.atomics)
	r.Counter("emu/long_ops").Set(c.longOps)
	r.Counter("emu/touched_lines").Set(uint64(len(c.lines)))
	f := create(path)
	if err := r.WriteJSON(f); err != nil {
		fatal(err)
	}
	closeOut(f)
}

func create(path string) *os.File {
	if path == "-" {
		return os.Stdout
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return f
}

func closeOut(f *os.File) {
	if f != os.Stdout {
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rkrun:", err)
	os.Exit(1)
}
