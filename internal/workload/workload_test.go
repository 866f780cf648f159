package workload

import (
	"sync"
	"testing"

	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

// TestAllWorkloadsTerminate runs every generated workload (test scale)
// on the golden emulator: each must assemble, run to a clean halt within
// a sane instruction budget, and roughly match its declared size.
func TestAllWorkloadsTerminate(t *testing.T) {
	specs, err := BuildAll(ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(Names) {
		t.Fatalf("built %d, want %d", len(specs), len(Names))
	}
	for _, w := range specs {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			m := mem.NewSparse()
			w.Program.Load(m)
			e := isa.NewEmulator(w.Program.Entry, m)
			if err := e.Run(100_000_000); err != nil {
				t.Fatalf("emulate: %v", err)
			}
			if e.Executed == 0 {
				t.Fatal("no instructions executed")
			}
			// ApproxInsts is allowed to be rough, but not wildly off.
			ratio := float64(e.Executed) / float64(w.ApproxInsts)
			if ratio < 0.3 || ratio > 3.0 {
				t.Errorf("executed %d vs declared %d (ratio %.2f)", e.Executed, w.ApproxInsts, ratio)
			}
			if w.Description == "" || w.Standin == "" {
				t.Error("missing documentation fields")
			}
		})
	}
}

// TestWorkloadsDeterministic: generating a workload twice produces
// byte-identical programs. It calls the generators, since Build hands
// out one memoized spec.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, name := range Names {
		a, err := ByName[name](ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ByName[name](ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Program.Segments) != len(b.Program.Segments) {
			t.Fatalf("%s: segment count differs", name)
		}
		for i := range a.Program.Segments {
			sa, sb := a.Program.Segments[i], b.Program.Segments[i]
			if sa.Addr != sb.Addr || len(sa.Data) != len(sb.Data) {
				t.Fatalf("%s: segment %d shape differs", name, i)
			}
			for j := range sa.Data {
				if sa.Data[j] != sb.Data[j] {
					t.Fatalf("%s: segment %d byte %d differs", name, i, j)
				}
			}
		}
	}
}

// TestScaleGrows: full-scale workloads have strictly larger data images
// than test-scale ones.
func TestScaleGrows(t *testing.T) {
	for _, name := range Names {
		small, err := Build(name, ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		big, err := Build(name, ScaleFull)
		if err != nil {
			t.Fatal(err)
		}
		if big.Program.Size() < small.Program.Size() {
			t.Errorf("%s: full size %d < test size %d", name, big.Program.Size(), small.Program.Size())
		}
	}
}

// TestCommercialFootprintsExceedCaches: the commercial suite at full
// scale must be larger than the default L2 (the premise of the paper's
// workload characterization).
func TestCommercialFootprintsExceedCaches(t *testing.T) {
	l2 := mem.DefaultHierConfig().L2.SizeBytes
	for _, name := range CommercialNames {
		w, err := Build(name, ScaleFull)
		if err != nil {
			t.Fatal(err)
		}
		if w.Program.Size() < l2 {
			t.Errorf("%s: footprint %d < L2 %d", name, w.Program.Size(), l2)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Build("nope", ScaleTest); err == nil {
		t.Error("accepted unknown workload")
	}
	if len(built) != 2*len(ByName) {
		t.Errorf("the build memo holds %d entries, want one per built-in workload and scale", len(built))
	}
}

// TestParseScale: the one scale parser accepts the two names (full also
// as the default) and rejects anything else, a near miss included.
func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{"": ScaleFull, "full": ScaleFull, "test": ScaleTest} {
		if got, err := ParseScale(in); err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseScale("tset"); err == nil || err.Error() != `bad scale "tset" (want test or full)` {
		t.Errorf("ParseScale(\"tset\") error %v", err)
	}
}

// TestBuildOnce: concurrent and repeated Builds of one (name, scale)
// return one shared spec (run under -race), and the scales are built
// apart.
func TestBuildOnce(t *testing.T) {
	specs := make([]*Spec, 8)
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			specs[i], _ = Build("oltp", ScaleTest)
		}(i)
	}
	wg.Wait()
	again, err := Build("oltp", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range specs {
		if w != again {
			t.Fatal("Build returned two different specs for one (name, scale)")
		}
	}
	if again.Program.Name != "oltp" {
		t.Errorf("memoized program named %q", again.Program.Name)
	}
	if full, err := Build("oltp", ScaleFull); err != nil || full == again {
		t.Errorf("the full-scale build shares the test-scale spec (err %v)", err)
	}
}

func TestCyclePermutationSingleCycle(t *testing.T) {
	p := newPrng(99)
	n := 64
	next := p.cyclePermutation(n)
	seen := make([]bool, n)
	cur := 0
	for i := 0; i < n; i++ {
		if seen[cur] {
			t.Fatalf("revisited %d after %d steps", cur, i)
		}
		seen[cur] = true
		cur = next[cur]
	}
	if cur != 0 {
		t.Error("permutation is not a single cycle")
	}
}

func TestPrngDeterminism(t *testing.T) {
	a, b := newPrng(5), newPrng(5)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("prng not deterministic")
		}
	}
	if newPrng(0).next() == 0 {
		t.Error("zero seed not remapped")
	}
}
