package sim

import (
	"embed"
	"fmt"
	"path"
	"slices"
	"sort"
	"sync"

	"rocksim/internal/asm"
)

// The transient-leakage gadget corpus ships with the simulator so the
// security experiments (internal/experiments.SecurityGrid, surfaced by
// cmd/sstbench) and the regression tests check the very same programs.
// Each gadget is a Spectre-v1 bounds-check-bypass with a declared
// .secret region; see the .rk sources and docs/SECURITY.md.
//
//go:embed testdata/gadget_spectre_load.rk testdata/gadget_spectre_store.rk
var gadgetFS embed.FS

// LeakGadgets returns the built-in transient-leakage gadget corpus,
// sorted by name. The programs carry their file names in Program.Name.
// The corpus is assembled once per process; every call returns a fresh
// slice of the same shared, immutable programs.
func LeakGadgets() ([]*asm.Program, error) {
	progs, err := gadgets()
	return slices.Clone(progs), err
}

var gadgets = sync.OnceValues(func() ([]*asm.Program, error) {
	entries, err := gadgetFS.ReadDir("testdata")
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	progs := make([]*asm.Program, 0, len(entries))
	for _, e := range entries {
		src, err := gadgetFS.ReadFile(path.Join("testdata", e.Name()))
		if err != nil {
			return nil, err
		}
		prog, err := asm.Assemble(string(src))
		if err != nil {
			return nil, fmt.Errorf("gadget %s: %w", e.Name(), err)
		}
		prog.Name = e.Name()
		progs = append(progs, prog)
	}
	return progs, nil
})
