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
// (sim.Instance.CheckTransientLeakage), and (b) the per-thread cost of the mode
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
	// Both grids have one row per (mode, kind), mode-major; the tables
	// transpose them to one row per kind.
	rows := len(SecureModes) * len(kinds)
	gridRow := func(mi, ki int) int { return mi*len(kinds) + ki }
	modeOpts := func(row int) sim.Options {
		opts := r.BaseOptions()
		applySecureMode(&opts, SecureModes[row/len(kinds)])
		return opts
	}

	// Leakage verdicts: one leak-check cell per gadget. A verdict is the
	// cell's error: nil (clean), sim.ErrTransientLeak (leaks), or a
	// failure that renders as an ERR cell.
	vg := r.runGrid(rows, len(gadgets), func(row, col int) cell {
		return cell{sim.Cell{Kind: kinds[row%len(kinds)], Progs: []*asm.Program{gadgets[col]}, LeakCheck: true}, modeOpts(row)}
	})

	vt := stats.NewTable("Transient-leakage verdicts (gadget corpus: leaking channels per mode)",
		append([]string{"kind"}, SecureModes...)...)
	leakCount := map[[2]string]int{} // (kind, mode) -> leaking gadgets
	for ki, k := range kinds {
		row := []any{k.String()}
		for mi, mode := range SecureModes {
			var leaks []string
			cellErr := ""
			for gi, g := range gadgets {
				switch _, v := vg.at(gridRow(mi, ki), gi); {
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
	cg := r.runGrid(rows, len(specs), func(row, col int) cell {
		return coreCell(kinds[row%len(kinds)], specs[col], modeOpts(row))
	})
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
				out, err := cg.at(gridRow(mi, ki), wi)
				if err != nil {
					bad = err
					continue
				}
				ipcs = append(ipcs, out.IPC())
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
	for row := 0; row < rows; row++ {
		for gi := range gadgets {
			if _, v := vg.at(row, gi); v != nil && !errors.Is(v, sim.ErrTransientLeak) {
				failed = append(failed, v)
			}
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
