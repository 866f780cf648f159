// Package resetcheck supports the reset-equals-construction tests of
// the simulator's pooled components: a component that has run and then
// been Reset must hold exactly the state of a freshly constructed one.
package resetcheck

import (
	"fmt"
	"reflect"
)

// Diff returns the path of the first difference between fresh and
// reset, or "" when they hold the same state. It compares like
// reflect.DeepEqual, unexported fields and pointees included, except
// that a nil and an empty slice or map are the same state (a reset
// component keeps storage that construction may not have allocated yet)
// and func values are compared only for nil-ness. The values must hold
// no pointer cycle.
func Diff(fresh, reset any) string {
	return diff(reflect.ValueOf(fresh), reflect.ValueOf(reset), "")
}

func diff(a, b reflect.Value, path string) string {
	if !a.IsValid() || !b.IsValid() {
		return mismatch(path, a.IsValid() == b.IsValid(), a, b)
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return mismatch(path, a.IsNil() == b.IsNil(), a, b)
		}
		return diff(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d, reset %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d, reset %d", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			if d := diff(a.MapIndex(k), b.MapIndex(k), fmt.Sprintf("%s[%v]", path, k)); d != "" {
				return d
			}
		}
	case reflect.Func, reflect.Chan:
		return mismatch(path, a.IsNil() == b.IsNil(), a, b)
	default:
		return mismatch(path, a.Equal(b), a, b)
	}
	return ""
}

func mismatch(path string, same bool, a, b reflect.Value) string {
	if same {
		return ""
	}
	return fmt.Sprintf("%s: fresh %v, reset %v", path, a, b)
}
