package sim_test

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"rocksim/internal/faults"
	"rocksim/internal/obs"
	"rocksim/internal/serve"
	"rocksim/internal/sim"
)

// leaf is one exported leaf field of sim.Options: its index path, its
// dotted name and the top-level Options field it lives under.
type leaf struct {
	index []int
	name  string
	top   reflect.StructField
}

// optionLeaves walks every exported leaf of sim.Options: a struct field
// is descended into, any other field (a number, a bool, a string, an
// enum, the fault plan, a hook) is a leaf.
func optionLeaves() []leaf {
	var out []leaf
	var walk func(t reflect.Type, index []int, name string, top reflect.StructField)
	walk = func(t reflect.Type, index []int, name string, top reflect.StructField) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			if index == nil {
				top = f
			}
			ix := append(slices.Clone(index), i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, ix, name+f.Name+".", top)
				continue
			}
			out = append(out, leaf{ix, name + f.Name, top})
		}
	}
	walk(reflect.TypeOf(sim.Options{}), nil, "", reflect.StructField{})
	return out
}

// isHook reports whether a top-level Options field is an observability
// hook — a type from internal/obs — which observes a run without
// changing it.
func isHook(f reflect.StructField) bool {
	t := f.Type
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.PkgPath() == "rocksim/internal/obs"
}

// mutate changes leaf v to a different value that is still valid on the
// wire (enums step from their zero value to the next name).
func mutate(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Pointer:
		if !v.IsNil() {
			t.Fatalf("%s: base value is set; mutate only installs a zero value", name)
		}
		v.Set(reflect.New(v.Type().Elem()))
	default:
		t.Fatalf("%s: no mutation for a %v leaf; extend mutate", name, v.Kind())
	}
}

// TestOptionsKeysCoverEveryLeaf is the structural guard of the options
// encoding: for each single-leaf mutation of the default options,
//
//	(a) Fingerprint changes unless the field is key:"-" or a hook;
//	(b) ShapeFingerprint changes iff the field is keyed and not key:"run";
//	(c) KindFingerprint(k) of a core-config leaf changes exactly when
//	    the configuration kind k builds changes, and every other keyed
//	    leaf changes every kind's key;
//	(d) the options survive the wire form unchanged.
//
// A field added to any configuration is covered without editing this
// test or any encoder.
func TestOptionsKeysCoverEveryLeaf(t *testing.T) {
	base := sim.DefaultOptions()
	leaves := optionLeaves()
	if len(leaves) < 60 {
		t.Fatalf("walk found only %d leaves", len(leaves))
	}
	for _, l := range leaves {
		if isHook(l.top) {
			continue
		}
		m := base
		mutate(t, l.name, reflect.ValueOf(&m).Elem().FieldByIndex(l.index))
		tag := l.top.Tag.Get("key")
		keyed := tag != "-"

		if changed := m.Fingerprint() != base.Fingerprint(); changed != keyed {
			t.Errorf("%s: Fingerprint changed = %v, want %v", l.name, changed, keyed)
		}
		if changed, want := m.ShapeFingerprint() != base.ShapeFingerprint(), keyed && tag != "run"; changed != want {
			t.Errorf("%s: ShapeFingerprint changed = %v, want %v", l.name, changed, want)
		}
		for _, k := range sim.Kinds {
			want := keyed
			if tag == "core" {
				before, _ := sim.CoreConfig(k, base)
				after, _ := sim.CoreConfig(k, m)
				want = !reflect.DeepEqual(before, after)
			}
			if changed := m.KindFingerprint(k) != base.KindFingerprint(k); changed != want {
				t.Errorf("%s: KindFingerprint(%v) changed = %v, want %v", l.name, k, changed, want)
			}
		}

		b, err := json.Marshal(serve.WireFromOptions(m))
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		var w serve.WireOptions
		if err := json.Unmarshal(b, &w); err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		got, err := w.Verify()
		if err != nil {
			t.Errorf("%s: wire round trip refused: %v", l.name, err)
		} else if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: wire round trip changed the options:\n got  %+v\n want %+v", l.name, got, m)
		}
	}
}

// TestKindFingerprintMemoExact: the memoized KindFingerprint returns
// the bytes of a fresh encoding, on a miss and on a hit, for every
// single-leaf mutation of the default options, with hooks set or not,
// and with a fault plan (which is never memoized by its address: two
// plans with different contents behind reused options keep their own
// keys).
func TestKindFingerprintMemoExact(t *testing.T) {
	var cases []sim.Options
	for _, l := range optionLeaves() {
		if isHook(l.top) {
			continue
		}
		m := sim.DefaultOptions()
		mutate(t, l.name, reflect.ValueOf(&m).Elem().FieldByIndex(l.index))
		cases = append(cases, m)
	}
	hooked := sim.DefaultOptions()
	hooked.Metrics = obs.NewRegistry()
	cases = append(cases, hooked)
	faulted := sim.DefaultOptions()
	for _, spec := range []string{"seed=7;mem-jitter@0-5000:32", "seed=8;ckpt-deny@100-200"} {
		p, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if faulted.Faults == nil {
			faulted.Faults = p
		} else {
			*faulted.Faults = *p // same pointer, new contents
		}
		cases = append(cases, faulted)
		for _, k := range sim.Kinds {
			if got, want := faulted.KindFingerprint(k), faulted.KindKeyUncached(k); got != want {
				t.Fatalf("faults %q, kind %v: key %s, want %s", spec, k, got, want)
			}
		}
	}
	for i, o := range cases {
		for _, k := range sim.Kinds {
			want := o.KindKeyUncached(k)
			for pass := 0; pass < 2; pass++ {
				if got := o.KindFingerprint(k); got != want {
					t.Fatalf("case %d, kind %v, pass %d: key %s, want %s", i, k, pass, got, want)
				}
			}
		}
	}
}

func BenchmarkKindFingerprint(b *testing.B) {
	o := sim.DefaultOptions()
	var err error
	if o.Faults, err = faults.Parse("seed=7;mem-jitter@0-5000:32;ckpt-deny@100-200"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = o.KindFingerprint(sim.KindSST)
	}
}
