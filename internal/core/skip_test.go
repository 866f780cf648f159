package core

import (
	"reflect"
	"testing"

	"rocksim/internal/bpred"
)

// TestStallMovesNameCounters: every name on the declared list of words a
// pure stall may move resolves to a counter of Stats or bpred.Stats. A
// name left behind by a rename would resolve to nothing, and the stalls
// that move that counter would silently stop being skipped.
func TestStallMovesNameCounters(t *testing.T) {
	for _, name := range stallMoves {
		names := []string{name}
		if len(wordOffsets(reflect.TypeOf(Stats{}), 0, names, nil))+len(wordOffsets(reflect.TypeOf(bpred.Stats{}), 0, names, nil)) == 0 {
			t.Errorf("stallMoves names %q, which is no counter of Stats or bpred.Stats", name)
		}
	}
}
