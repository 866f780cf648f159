package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"testing"

	"rocksim/internal/isa"
)

// Field classes of the SST core. Each says what happens to a field at a
// rollback, so a new field must be placed before it can exist.
const (
	// survivor: Reset's composite literal carries it over unchanged
	// (configuration, the machine and storage that outlives a run).
	// Rollback never touches it.
	clsSurvivor = "survivor"
	// checkpointed: the per-register block a checkpoint saves and both
	// rollback and txAbort restore with one assignment.
	clsCheckpointed = "checkpointed"
	// seqList: a list whose entries carry a seq; rollback cuts it at the
	// checkpoint's seq (ckpts at its index).
	clsSeqList = "seq list"
	// derived: a counter or index kept consistent with a list by the
	// code that cuts the list (dqSquash, keepPend).
	clsDerived = "derived"
	// run: per-run or per-step state with its own rollback rule, or
	// none (the history register, processed and the CPI stack restore on
	// their own lines because each needs its own arithmetic).
	clsRun = "run"
)

var coreFieldClass = map[string]string{
	"cfg":      clsSurvivor,
	"m":        clsSurvivor,
	"fe":       clsSurvivor,
	"l1dHit":   clsSurvivor,
	"dqSlots":  clsSurvivor,
	"waitHead": clsSurvivor,
	"waitNext": clsSurvivor,
	"waitMask": clsSurvivor,

	"regState": clsCheckpointed,

	"ckpts":     clsSeqList,
	"dq":        clsSeqList,
	"ssb":       clsSeqList,
	"pend":      clsSeqList,
	"readSet":   clsSeqList,
	"specFills": clsSeqList,

	"dqFree":     clsDerived,
	"dqStores":   clsDerived,
	"dqReady":    clsDerived,
	"pendMin":    clsDerived,
	"pendSeqMin": clsDerived,
	"secPending": clsDerived,

	"mode":              clsRun,
	"seq":               clsRun,
	"sbHorizon":         clsRun,
	"processed":         clsRun,
	"scoutTriggerSeq":   clsRun,
	"scoutTriggerReady": clsRun,
	"scoutArmed":        clsRun,
	"forceProgress":     clsRun,
	"forceProgressPC":   clsRun,
	"tx":                clsRun,
	"invalListener":     clsRun,
	"cohSeq":            clsRun,
	"sink":              clsRun,
	"occ":               clsRun,
	"flt":               clsRun,
	"done":              clsRun,
	"err":               clsRun,
	"cycle":             clsRun,
	"resolveDirty":      clsRun,
	"quiet":             clsRun,
	"feStall":           clsRun,
	"ffNext":            clsRun,
	"ffKind":            clsRun,
	"ffBucket":          clsRun,
	"ffDQStall":         clsRun,
	"ffSSBStall":        clsRun,
	"ffAtStall":         clsRun,
	"ffSecDelay":        clsRun,
	"ffSecNoFwd":        clsRun,
	"ffSecSSB":          clsRun,
	"ffLookups":         clsRun,
	"ffMLP":             clsRun,
	"stats":             clsRun,
	"snapBuf":           clsRun,
}

// resetCarried returns the fields Reset's Core literal carries over
// verbatim (`f: c.f`), read from reset.go's syntax.
func resetCarried(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "reset.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	carried := map[string]bool{}
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if id, ok := lit.Type.(*ast.Ident); !ok || id.Name != "Core" {
			return true
		}
		found = true
		for _, el := range lit.Elts {
			kv := el.(*ast.KeyValueExpr)
			key := kv.Key.(*ast.Ident).Name
			if sel, ok := kv.Value.(*ast.SelectorExpr); ok && sel.Sel.Name == key {
				carried[key] = true
			}
		}
		return false
	})
	if !found {
		t.Fatal("reset.go has no Core composite literal")
	}
	return carried
}

// TestCoreFieldClasses places every Core field in exactly one class:
// a field missing from coreFieldClass fails, as does a survivor that
// Reset's literal does not carry (or the reverse), and so does a
// per-register array anywhere in the core's own types outside
// regState — it would escape the checkpoint's single restore.
func TestCoreFieldClasses(t *testing.T) {
	ct := reflect.TypeOf(Core{})
	seen := map[string]bool{}
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		seen[name] = true
		if _, ok := coreFieldClass[name]; !ok {
			t.Errorf("Core.%s has no field class: add it to coreFieldClass (and to rollback's handling if it is speculative)", name)
		}
	}
	var stale []string
	for name := range coreFieldClass {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("coreFieldClass names %s, which Core does not have", name)
	}

	carried := resetCarried(t)
	for name, cls := range coreFieldClass {
		switch {
		case cls == clsSurvivor && !carried[name]:
			t.Errorf("Core.%s is classed a survivor, but Reset's literal does not carry it over", name)
		case cls != clsSurvivor && carried[name]:
			t.Errorf("Core.%s is classed %q, but Reset's literal carries it over", name, cls)
		}
	}

	visited := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Array:
			if typ.Len() == isa.NumRegs {
				t.Errorf("%s is a per-register array outside regState", path)
			}
			walk(typ.Elem(), path+"[]")
		case reflect.Slice:
			walk(typ.Elem(), path+"[]")
		case reflect.Struct:
			if typ == reflect.TypeOf(regState{}) || typ.PkgPath() != ct.PkgPath() || visited[typ] {
				return
			}
			visited[typ] = true
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		}
	}
	walk(ct, "Core")
}
