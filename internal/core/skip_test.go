package core

import (
	"reflect"
	"sort"
	"testing"

	"rocksim/internal/cpu"
)

// TestTimeIndexedIsWhatSkipToCredits: the purity check's declared
// time-indexed fields (Stats.adoptTimeIndexed) are exactly the
// statistics SkipTo bulk-credits. A field SkipTo credits that the check
// still compares would make every stall unskippable; a field the check
// ignores that SkipTo never credits would let a stall cycle that moved
// it be skipped, and the skipped cycles' counts be lost.
func TestTimeIndexedIsWhatSkipToCredits(t *testing.T) {
	c := propCore(t)
	c.ffKind, c.ffBucket = CycleKind(1), cpu.Bucket(1)
	c.ffDQStall, c.ffSSBStall, c.ffAtStall = 1, 1, 1
	c.ffSecDelay, c.ffSecNoFwd, c.ffSecSSB = 1, 1, 1
	c.ffMLP = 1
	before := c.stats
	c.SkipTo(c.cycle + 5)
	credited := changedFields(reflect.ValueOf(before), reflect.ValueOf(c.stats), "")

	var ones Stats
	setOnes(reflect.ValueOf(&ones).Elem())
	adopted := ones
	adopted.adoptTimeIndexed(&Stats{})
	declared := changedFields(reflect.ValueOf(ones), reflect.ValueOf(adopted), "")

	if !reflect.DeepEqual(credited, declared) {
		t.Errorf("SkipTo credits %v\nbut the declared time-indexed fields are %v", credited, declared)
	}
}

// changedFields lists the leaf fields (descending into structs, arrays
// and pointers compared whole) whose values differ between a and b.
func changedFields(a, b reflect.Value, prefix string) []string {
	var out []string
	for i := 0; i < a.NumField(); i++ {
		f := a.Type().Field(i)
		name := prefix + f.Name
		if f.Type.Kind() == reflect.Struct {
			out = append(out, changedFields(a.Field(i), b.Field(i), name+".")...)
			continue
		}
		if a.Field(i).Interface() != b.Field(i).Interface() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// setOnes sets every unsigned integer in v (arrays and nested structs
// included) to 1.
func setOnes(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setOnes(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			setOnes(v.Index(i))
		}
	case reflect.Uint64:
		v.SetUint(1)
	}
}
