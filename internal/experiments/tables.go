package experiments

import (
	"fmt"

	"rocksim/internal/sim"
	"rocksim/internal/stats"
	"rocksim/internal/workload"
)

// ConfigTable regenerates Table 1: the simulated machine configurations.
func ConfigTable() *Result {
	opts := sim.DefaultOptions()
	t := stats.NewTable("Table 1: simulated machine configurations",
		"machine", "width", "window", "checkpoints", "DQ", "SSB/LSQ", "notes")
	io := opts.InOrder
	t.AddRow("in-order", io.Width, "-", "-", "-",
		fmt.Sprintf("SB %d", io.StoreBufferSize), "stall-on-use scoreboard")
	os := opts.OOO
	t.AddRow("ooo-small", os.IssueWidth, fmt.Sprintf("ROB %d / IQ %d", os.ROBSize, os.IQSize),
		"-", "-", fmt.Sprintf("LSQ %d", os.LSQSize), "rename + speculative disambiguation")
	ol := opts.OOOLg
	t.AddRow("ooo-large", ol.IssueWidth, fmt.Sprintf("ROB %d / IQ %d", ol.ROBSize, ol.IQSize),
		"-", "-", fmt.Sprintf("LSQ %d", ol.LSQSize), "the paper's larger, higher-powered OOO")
	ss := opts.SST
	t.AddRow("sst", fmt.Sprintf("%d+%d", ss.Width, ss.ReplayWidth), "-",
		ss.Checkpoints, ss.DQSize, fmt.Sprintf("SSB %d", ss.SSBSize),
		"two strands: ahead + DQ replay")
	t.AddRow("sst-big", fmt.Sprintf("%d+%d", ss.Width, ss.ReplayWidth), "-",
		2*ss.Checkpoints, 2*ss.DQSize, fmt.Sprintf("SSB %d", 2*ss.SSBSize),
		"the abstract's \"certain SST implementations\"")
	t.AddRow("sst-ea", ss.Width, "-", ss.Checkpoints, ss.DQSize,
		fmt.Sprintf("SSB %d", ss.SSBSize), "ablation: replay steals ahead slots")
	t.AddRow("scout", ss.Width, "-", 1, 0, "-", "ablation: runahead prefetch only")

	h := opts.Hier
	mt := stats.NewTable("memory hierarchy (shared by all machines)",
		"level", "size", "assoc", "line", "latency", "MSHRs")
	mt.AddRow("L1I", fmt.Sprintf("%dKB", h.L1I.SizeBytes>>10), h.L1I.Ways, h.L1I.LineBytes, h.L1I.HitLatency, h.L1I.MSHRs)
	mt.AddRow("L1D", fmt.Sprintf("%dKB", h.L1D.SizeBytes>>10), h.L1D.Ways, h.L1D.LineBytes, h.L1D.HitLatency, h.L1D.MSHRs)
	mt.AddRow("L2", fmt.Sprintf("%dMB", h.L2.SizeBytes>>20), h.L2.Ways, h.L2.LineBytes, h.L2.HitLatency, h.L2.MSHRs)
	mt.AddRow("DRAM", "-", fmt.Sprintf("%d banks", h.DRAM.Banks), "-", h.DRAM.Latency, "-")

	return &Result{
		ID:     "T1",
		Title:  "machine configurations",
		Tables: []*stats.Table{t, mt},
	}
}

// WorkloadTable regenerates Table 2: workload characterization, measured
// on the in-order baseline (instruction mix, footprint, miss rates).
// The in-order runs go through the runner's cache, so they are shared
// with F1's baseline column.
func (r *Runner) WorkloadTable(scale workload.Scale) (*Result, error) {
	specs, err := workload.BuildAll(scale)
	if err != nil {
		return nil, err
	}
	opts := r.BaseOptions()
	g := r.runGrid(len(specs), 1, func(row, _ int) cell { return coreCell(sim.KindInOrder, specs[row], opts) })
	t := stats.NewTable("Table 2: workload characterization (measured on the in-order core)",
		"workload", "class", "stands in for", "insts", "loads%", "stores%", "branches%", "L1D miss%", "L2 miss%", "IPC(inorder)")
	for row, w := range specs {
		t.AddRow(g.row([]any{w.Name, w.Class.String(), w.Standin}, row, 7, func(_ int, out *sim.Outcome) []any {
			b := &out.Base
			return []any{out.Retired,
				stats.Pct(b.Loads, out.Retired),
				stats.Pct(b.Stores, out.Retired),
				stats.Pct(b.Branches, out.Retired),
				100 * out.Hier.L1D[0].MissRate(),
				100 * out.Hier.L2.MissRate(),
				out.IPC()}
		})...)
	}
	return &Result{ID: "T2", Title: "workload characterization", Tables: []*stats.Table{t}, Errs: errLines(g)}, nil
}

// areaModel is the first-order structure-count area/power proxy used by
// T3. Units are normalized to the scalar in-order integer core = 1.0.
// The model charges each SRAM-like structure area proportional to
// bits stored, with a 4x multiplier for CAM/selection structures (issue
// window, LSQ search, rename comparators) — the classic reason large
// windows are power-hungry. It is a ranking proxy, not a layout model.
type areaModel struct {
	name       string
	base       float64 // pipeline + regfile + predictor + L1 interfaces
	sramBits   float64 // plain SRAM bits beyond the base
	camBits    float64 // CAM/selection bits
	issueWidth int
	// schedTerms charges the dynamic-scheduling logic an out-of-order
	// core cannot avoid: rename comparators, wakeup broadcast, and the
	// select tree — all scaling with window x width. This, not raw bits,
	// is where the ROB/IQ machinery costs area and power; SST's plain
	// SRAM FIFOs have no equivalent.
	schedWindow int // issue-window entries driving wakeup/select
}

func (a areaModel) sched() float64 {
	return 0.02 * float64(a.schedWindow) * float64(a.issueWidth)
}

func (a areaModel) area() float64 {
	const perSRAMKb = 0.05 // area units per kilobit of SRAM
	const camFactor = 4.0
	w := float64(a.issueWidth) * 0.15 // wider datapaths
	return a.base + w + a.sramBits/1024*perSRAMKb + camFactor*a.camBits/1024*perSRAMKb + a.sched()
}

func (a areaModel) power() float64 {
	// Dynamic power tracks area here, with CAM structures charged extra
	// for their per-cycle broadcast activity.
	const perSRAMKb = 0.04
	const camFactor = 7.0
	w := float64(a.issueWidth) * 0.2
	return a.base + w + a.sramBits/1024*perSRAMKb + camFactor*a.camBits/1024*perSRAMKb + 1.5*a.sched()
}

// AreaPowerProxy regenerates Table 3: the structures each core pays for,
// and the resulting first-order area/power ranking. SST's claim is
// precisely that checkpoints + DQ + SSB (plain SRAM) replace rename,
// ROB, issue window and disambiguation CAMs.
func AreaPowerProxy() *Result {
	opts := sim.DefaultOptions()
	entryBits := func(entries, width int) float64 { return float64(entries * width) }

	inorder := areaModel{name: "in-order", base: 1.0, issueWidth: opts.InOrder.Width,
		sramBits: entryBits(opts.InOrder.StoreBufferSize, 128)}

	mkOOO := func(name string, c int, rob, iq, lsq int) areaModel {
		return areaModel{
			name: name, base: 1.0, issueWidth: c,
			// ROB: ~140b/entry (value+tags); rename map SRAM.
			sramBits: entryBits(rob, 140) + 32*8,
			// IQ and LSQ are CAM-searched every cycle.
			camBits:     entryBits(iq, 80) + entryBits(lsq, 100),
			schedWindow: iq,
		}
	}
	oooS := mkOOO("ooo-small", opts.OOO.IssueWidth, opts.OOO.ROBSize, opts.OOO.IQSize, opts.OOO.LSQSize)
	oooL := mkOOO("ooo-large", opts.OOOLg.IssueWidth, opts.OOOLg.ROBSize, opts.OOOLg.IQSize, opts.OOOLg.LSQSize)

	ss := opts.SST
	sst := areaModel{
		name: "sst", base: 1.0, issueWidth: ss.Width + ss.ReplayWidth/2,
		// Checkpoints are bulk register-file copies; DQ and SSB are
		// plain SRAM FIFOs; NA bits are 1b/register.
		sramBits: float64(ss.Checkpoints)*32*64 + entryBits(ss.DQSize, 150) + entryBits(ss.SSBSize, 140) + 32,
		camBits:  0,
	}

	t := stats.NewTable("Table 3: first-order area/power proxy (in-order core = 1.0)",
		"core", "SRAM bits", "CAM bits", "area", "power", "key structures")
	t.AddRow(inorder.name, int(inorder.sramBits), int(inorder.camBits),
		inorder.area(), inorder.power(), "scoreboard, store buffer")
	t.AddRow(oooS.name, int(oooS.sramBits), int(oooS.camBits),
		oooS.area(), oooS.power(), "rename, ROB, IQ+LSQ CAMs")
	t.AddRow(oooL.name, int(oooL.sramBits), int(oooL.camBits),
		oooL.area(), oooL.power(), "rename, big ROB, big IQ+LSQ CAMs")
	t.AddRow(sst.name, int(sst.sramBits), int(sst.camBits),
		sst.area(), sst.power(), "checkpoints, DQ, SSB (no CAMs)")

	return &Result{
		ID:     "T3",
		Title:  "area/power proxy",
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("sst area %.2f vs ooo-large %.2f (%.1fx smaller)", sst.area(), oooL.area(), oooL.area()/sst.area()),
			fmt.Sprintf("sst power %.2f vs ooo-large %.2f (%.1fx lower)", sst.power(), oooL.power(), oooL.power()/sst.power()),
		},
	}
}
