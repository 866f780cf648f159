package experiments

import (
	"errors"
	"fmt"
	"strings"

	"rocksim/internal/asm"
	"rocksim/internal/sim"
	"rocksim/internal/stats"
	"rocksim/internal/workload"
)

// SecureModes lists the secure-speculation configurations of the
// security grid: each single mitigation, all three together, and the
// unmitigated baseline (see docs/SECURITY.md).
var SecureModes = []string{"none", "delay", "nofwd", "ssb", "all"}

// applySecureMode sets the SST-family secure-speculation switches for
// one named mode. The switches live in the SST core configuration, so
// they are inert on the in-order and OOO baselines.
func applySecureMode(opts *sim.Options, mode string) {
	switch mode {
	case "none":
	case "delay":
		opts.SST.SecureDelayOnMiss = true
	case "nofwd":
		opts.SST.SecureNoNAForward = true
	case "ssb":
		opts.SST.SecureEagerSSBFlush = true
	case "all":
		opts.SST.SecureDelayOnMiss = true
		opts.SST.SecureNoNAForward = true
		opts.SST.SecureEagerSSBFlush = true
	default:
		panic("experiments: unknown secure mode " + mode)
	}
}

// gadgetShort compresses a gadget file name to its channel label:
// gadget_spectre_load.rk -> load.
func gadgetShort(name string) string {
	return strings.TrimSuffix(strings.TrimPrefix(name, "gadget_spectre_"), ".rk")
}

// SecurityGrid produces the security-vs-performance grid: for every
// core kind and secure-speculation mode, (a) the transient-leakage
// verdict of each built-in Spectre gadget under the differential oracle
// (sim.CheckTransientLeakage), and (b) the per-thread cost of the mode
// as geomean IPC on the commercial suite relative to the unmitigated
// configuration. The paper's SST pipeline trades rollback-based
// speculation for performance; this grid prices what taking the
// resulting transient channels off the table costs.
func (r *Runner) SecurityGrid(scale workload.Scale) (*Result, error) {
	gadgets, err := sim.LeakGadgets()
	if err != nil {
		return nil, err
	}
	specs, err := workload.BuildSuite(workload.CommercialNames, scale)
	if err != nil {
		return nil, err
	}
	kinds := sim.Kinds

	// Leakage verdicts: one leak-check cell per (mode, kind, gadget). A
	// verdict is the cell's error: nil (clean), sim.ErrTransientLeak
	// (leaks), or a failure that renders as an ERR cell.
	vcells := make([]cell, 0, len(SecureModes)*len(kinds)*len(gadgets))
	for _, mode := range SecureModes {
		opts := r.BaseOptions()
		applySecureMode(&opts, mode)
		for _, k := range kinds {
			for _, g := range gadgets {
				vcells = append(vcells, cell{sim.Cell{Kind: k, Progs: []*asm.Program{g}, LeakCheck: true}, opts})
			}
		}
	}
	_, verdicts := r.runCells(vcells)

	vt := stats.NewTable("Transient-leakage verdicts (gadget corpus: leaking channels per mode)",
		append([]string{"kind"}, SecureModes...)...)
	leakCount := map[[2]string]int{} // (kind, mode) -> leaking gadgets
	for ki, k := range kinds {
		row := []any{k.String()}
		for mi, mode := range SecureModes {
			var leaks []string
			cellErr := ""
			for gi, g := range gadgets {
				i := (mi*len(kinds)+ki)*len(gadgets) + gi
				switch v := verdicts[i]; {
				case v == nil:
				case errors.Is(v, sim.ErrTransientLeak):
					leaks = append(leaks, gadgetShort(g.Name))
					leakCount[[2]string{k.String(), mode}]++
				default:
					cellErr = errCell(v)
				}
			}
			switch {
			case cellErr != "":
				row = append(row, cellErr)
			case len(leaks) == 0:
				row = append(row, "-")
			default:
				row = append(row, strings.Join(leaks, ","))
			}
		}
		vt.AddRow(row...)
	}

	// Mitigation cost: commercial-suite IPC per (mode, kind), relative
	// to the unmitigated geomean of the same kind.
	cells := make([]cell, 0, len(SecureModes)*len(kinds)*len(specs))
	for _, mode := range SecureModes {
		for _, k := range kinds {
			opts := r.BaseOptions()
			applySecureMode(&opts, mode)
			for _, w := range specs {
				cells = append(cells, coreCell(k, w, opts))
			}
		}
	}
	outs, errs := r.runCells(cells)
	ct := stats.NewTable("Secure-mode per-thread cost (geomean IPC relative to unmitigated, commercial suite)",
		append([]string{"kind"}, SecureModes...)...)
	relGeo := map[[2]string]float64{}
	var cellErrs []error
	for ki, k := range kinds {
		row := []any{k.String()}
		var baseGeo float64
		for mi, mode := range SecureModes {
			var ipcs []float64
			var bad error
			for wi := range specs {
				i := (mi*len(kinds)+ki)*len(specs) + wi
				if errs[i] != nil {
					bad = errs[i]
					continue
				}
				ipcs = append(ipcs, outs[i].IPC())
			}
			if bad != nil {
				cellErrs = append(cellErrs, bad)
				row = append(row, errCell(bad))
				continue
			}
			geo := stats.GeoMean(ipcs)
			if mode == "none" {
				baseGeo = geo
			}
			rel := geo / baseGeo
			relGeo[[2]string{k.String(), mode}] = rel
			row = append(row, rel)
		}
		ct.AddRow(row...)
	}

	// A verdict other than clean or leaking is a failed cell.
	var failed []error
	for _, v := range verdicts {
		if v != nil && !errors.Is(v, sim.ErrTransientLeak) {
			failed = append(failed, v)
		}
	}
	cost := func(mode string) float64 {
		return 100 * (1 - relGeo[[2]string{"sst", mode}])
	}
	return &Result{
		ID:     "S1",
		Title:  "secure speculation: leakage coverage vs per-thread cost",
		Tables: []*stats.Table{vt, ct},
		Notes: []string{
			fmt.Sprintf("unmitigated sst leaks %d/%d gadgets; full mitigation leaks %d",
				leakCount[[2]string{"sst", "none"}], len(gadgets), leakCount[[2]string{"sst", "all"}]),
			fmt.Sprintf("sst cost on commercial geomean: delay %.1f%%, nofwd %.1f%%, ssb %.1f%%, all %.1f%%",
				cost("delay"), cost("nofwd"), cost("ssb"), cost("all")),
			"secure modes configure the SST family only: the OOO baseline has no mitigation, like the cores Spectre was published against",
		},
		Errs: append(collectErrs(failed), collectErrs(cellErrs)...),
	}, nil
}
