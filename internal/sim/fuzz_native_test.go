package sim

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/progen"
)

// Native coverage-guided fuzzing of the differential oracle. The fuzz
// input is not a serialized program (arbitrary bytes rarely assemble);
// it is the *choice stream* driving progen.Gen: every random decision the
// generator makes consumes input bytes, so the mutator explores program
// shapes — loop nesting, tx placement, address mixes — through byte
// edits, while every input still yields a valid, terminating program.
// When the input runs dry the source falls over to a deterministic
// xorshift continuation seeded from the input, keeping short inputs
// productive (the 64KB data-image fill alone would exhaust any corpus
// entry).

// byteSource is a rand.Source64 that replays fuzz input bytes first.
type byteSource struct {
	data []byte
	i    int
	s    uint64
}

func newByteSource(data []byte) *byteSource {
	s := uint64(0x9E3779B97F4A7C15)
	for _, b := range data {
		s = (s ^ uint64(b)) * 0x100000001B3
	}
	return &byteSource{data: data, s: s | 1}
}

func (b *byteSource) Seed(int64) {}

func (b *byteSource) Uint64() uint64 {
	if b.i < len(b.data) {
		var v uint64
		for k := 0; k < 8; k++ {
			v <<= 8
			if b.i < len(b.data) {
				v |= uint64(b.data[b.i])
				b.i++
			}
		}
		return v
	}
	// xorshift64* continuation: deterministic per input.
	b.s ^= b.s << 13
	b.s ^= b.s >> 7
	b.s ^= b.s << 17
	return b.s * 0x2545F4914F6CDD1D
}

func (b *byteSource) Int63() int64 { return int64(b.Uint64() >> 1) }

// fuzzProgram generates the program a fuzz input encodes.
func fuzzProgram(data []byte) (*asm.Program, error) {
	nstmt := 8 + len(data)%120
	return progen.New(rand.New(newByteSource(data)), false).Program(nstmt)
}

// FuzzDifferential is the emulator-vs-all-cores property as a native
// fuzz target: `go test ./internal/sim -fuzz FuzzDifferential` explores
// program space coverage-guided (make fuzz-short runs a bounded
// budget); without -fuzz the seed corpus under testdata/corpus runs as
// ordinary regression tests.
func FuzzDifferential(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "corpus", "*"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed corpus under testdata/corpus: %v", err)
	}
	for _, p := range seeds {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096] // bound generation work per exec
		}
		prog, err := fuzzProgram(data)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		checkEmu(t, kindCases("input", prog, fuzzFaultOpts(), nil)...)
	})
}
