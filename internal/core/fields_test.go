package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rocksim/internal/cpu"
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
	"ff":                clsRun,
	"stats":             clsRun,
	"pj":                clsRun,
	"snapBuf":           clsRun,
}

// periodJumpFieldClass gives each field of the scout period jump's own
// state (Core.pj, classed clsRun) its lifetime: one Step, one loop
// period, a chain of loop-head snapshots, an armed jump, or the run (the
// cached reference period, kept across scout episodes until a newer one
// replaces it). Reset zeroes pj whole, so even the run-long cache starts
// every run empty (TestResetForgetsCachedPeriod).
var periodJumpFieldClass = map[string]string{
	"head": "step", "headPC": "step",
	"bad": "period", "recs": "period", "cur": "period",
	"sig": "chain", "lastCycle": "chain", "lastSeq": "chain", "n": "chain", "snaps": "chain",
	"period": "jump", "end": "jump", "branches": "jump", "pattern": "jump",
	"l1iSince": "jump", "l1iPerRun": "jump", "fetch": "jump",
	"ref": "run",
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

	pjt := reflect.TypeOf(periodJump{})
	for i := 0; i < pjt.NumField(); i++ {
		if name := pjt.Field(i).Name; periodJumpFieldClass[name] == "" {
			t.Errorf("periodJump.%s has no lifetime: add it to periodJumpFieldClass", name)
		}
	}
	for name := range periodJumpFieldClass {
		if _, ok := pjt.FieldByName(name); !ok {
			t.Errorf("periodJumpFieldClass names %s, which periodJump does not have", name)
		}
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

// Period-jump classes: how the scout period jump (period.go) treats a
// field across the whole periods it credits.
const (
	// jInvariant: unchanged by a repeating period; the jump requires it
	// to hold still (periodFixed, the NA bits) or it cannot change in
	// scout mode at all.
	jInvariant = "invariant"
	// jCycle: a cycle count that moves with the clock or lies in the
	// past; credited the period times k.
	jCycle = "affine in the cycle"
	// jSeq: a seq that moves by the period's seq delta or not at all.
	jSeq = "affine in seq"
	// jCounter: moves by the same amount every period, credited times k.
	jCounter = "counter"
	// jShift: a shift register, credited by shifting the period's bits
	// in k times.
	jShift = "shift register"
)

var coreJumpClass = map[string]string{
	"cfg": jInvariant, "m": jInvariant, "fe": jInvariant, "l1dHit": jInvariant,
	"regState": "", // classed field by field in regStateJumpClass
	"mode":     jInvariant, "seq": jSeq,
	"ckpts": jInvariant, "dq": jInvariant, "ssb": jInvariant, "pend": jInvariant,
	"dqSlots": jInvariant, "dqFree": jInvariant, "waitHead": jInvariant, "waitNext": jInvariant, "waitMask": jInvariant,
	"pendMin": jInvariant, "pendSeqMin": jInvariant, "sbHorizon": jCycle,
	"dqStores": jInvariant, "dqReady": jInvariant, "readSet": jInvariant, "processed": jCounter,
	"scoutTriggerSeq": jInvariant, "scoutTriggerReady": jInvariant, "scoutArmed": jInvariant,
	"forceProgress": jInvariant, "forceProgressPC": jInvariant,
	"tx": jInvariant, "invalListener": jInvariant, "cohSeq": jInvariant,
	"sink": jInvariant, "occ": jInvariant, "flt": jInvariant,
	"done": jInvariant, "err": jInvariant, "cycle": jCycle,
	"resolveDirty": jInvariant, "quiet": jInvariant, "feStall": jInvariant,
	"secPending": jInvariant, "specFills": jInvariant,
	"ffNext": jInvariant, "ff": jInvariant,
	"stats": jCounter, "pj": jInvariant, "snapBuf": jInvariant,
}

var regStateJumpClass = map[string]string{
	"regs": jCounter, "na": jInvariant, "lastWriter": jSeq, "readyAt": jCycle,
}

// frontendJumpClass classes cpu.Frontend's fields. The machine, its L1I
// and the decode memo are fixed for a run or host-side only; the rest
// is compared through cpu.FetchState.
var frontendJumpClass = map[string]string{
	"m": jInvariant, "l1i": jInvariant, "memo": jInvariant, "page": jInvariant,
	"pc": jInvariant, "stallUntil": jCycle, "lineAddr": jInvariant, "lineReady": jCycle,
	"haveLine": jInvariant, "pageNum": jInvariant,
}

// TestPeriodJumpFieldClasses: every field of Core, regState and
// cpu.Frontend names how the scout period jump treats it, so a field
// added later fails here until it has a credit rule. The classes must
// also match the jump's snapshot: whatever moves (a counter, or a
// cycle- or seq-valued field) is a periodSnap field the credit reads;
// and the frontend's simulated state is all in cpu.FetchState.
func TestPeriodJumpFieldClasses(t *testing.T) {
	snap := reflect.TypeOf(periodSnap{})
	check := func(typ reflect.Type, classes map[string]string) {
		seen := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			seen[name] = true
			cls, ok := classes[name]
			switch {
			case !ok:
				t.Errorf("%s.%s has no period-jump class: say how a scout period jump credits it", typ.Name(), name)
			case cls == jCounter || cls == jCycle || cls == jSeq:
				if _, ok := snap.FieldByName(name); !ok && typ != reflect.TypeOf(cpu.Frontend{}) {
					t.Errorf("%s.%s is classed %q but periodSnap does not record it", typ.Name(), name, cls)
				}
			}
		}
		for name := range classes {
			if !seen[name] {
				t.Errorf("the period-jump classes name %s.%s, which does not exist", typ.Name(), name)
			}
		}
	}
	check(reflect.TypeOf(Core{}), coreJumpClass)
	check(reflect.TypeOf(regState{}), regStateJumpClass)
	// The cached reference period keeps whole loop-head snapshots, so a
	// field the compare reads from a chain's snapshots is cached too.
	for _, name := range []string{"s0", "s1"} {
		if f, ok := reflect.TypeOf(periodRef{}).FieldByName(name); !ok || f.Type != snap {
			t.Errorf("periodRef.%s must be a periodSnap", name)
		}
	}
	fe := reflect.TypeOf(cpu.Frontend{})
	check(fe, frontendJumpClass)
	fetch := reflect.TypeOf(cpu.FetchState{})
	for name, cls := range frontendJumpClass {
		_, inState := fetch.FieldByNameFunc(func(s string) bool { return strings.EqualFold(s, name) })
		_, inSnap := snap.FieldByName(name)
		switch {
		case cls == jCycle && !(inState && inSnap):
			t.Errorf("Frontend.%s moves with the clock but FetchState or periodSnap does not carry it", name)
		case cls == jInvariant && !inState && name != "m" && name != "l1i" && name != "memo" && name != "page":
			t.Errorf("Frontend.%s must hold still across a period but FetchState does not carry it", name)
		}
	}
}
