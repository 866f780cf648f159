package rocksim_test

import (
	"testing"

	"rocksim"
)

// TestFacadeQuickstart exercises the documented public API end to end.
func TestFacadeQuickstart(t *testing.T) {
	w, err := rocksim.BuildWorkload("oltp", rocksim.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rocksim.Run(rocksim.SST, w.Program, rocksim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC() <= 0 || res.Retired == 0 {
		t.Errorf("empty result: %+v", res)
	}
	st, ok := rocksim.SSTStats(res)
	if !ok || st.CheckpointsTaken == 0 {
		t.Error("SST stats missing")
	}
	if _, ok := rocksim.SSTStats(mustRun(t, rocksim.InOrder, w)); ok {
		t.Error("in-order run claims SST stats")
	}
}

func mustRun(t *testing.T, k rocksim.CoreKind, w *rocksim.Workload) rocksim.Result {
	t.Helper()
	res, err := rocksim.Run(k, w.Program, rocksim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFacadeAssembleAndEmulate(t *testing.T) {
	prog, err := rocksim.Assemble(`
		movi r1, 21
		add  r2, r1, r1
		st64 r2, 0x40(zero)
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	emu, m, err := rocksim.Emulate(prog, 100)
	if err != nil {
		t.Fatal(err)
	}
	if emu.Executed != 4 || m.Read(0x40, 8) != 42 {
		t.Errorf("executed=%d mem=%d", emu.Executed, m.Read(0x40, 8))
	}
}

func TestFacadeBuilderAPI(t *testing.T) {
	b := rocksim.NewProgramBuilder(rocksim.DefaultTextBase)
	add, ok := rocksim.OpByName("add")
	if !ok {
		t.Fatal("no add opcode")
	}
	b.Movi(1, 5)
	b.Movi(2, 6)
	b.Op(add, 3, 1, 2)
	b.Halt()
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	emu, _, err := rocksim.Emulate(prog, 100)
	if err != nil {
		t.Fatal(err)
	}
	if emu.Reg[3] != 11 {
		t.Errorf("r3 = %d", emu.Reg[3])
	}
}

func TestFacadeKindNames(t *testing.T) {
	for _, k := range rocksim.CoreKinds {
		got, err := rocksim.CoreKindByName(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v failed: %v", k, err)
		}
	}
	if _, err := rocksim.CoreKindByName("bogus"); err == nil {
		t.Error("accepted bogus kind")
	}
	names := rocksim.WorkloadNames()
	if len(names) == 0 {
		t.Fatal("no workloads")
	}
	if len(rocksim.CommercialWorkloadNames()) != 4 {
		t.Error("commercial suite wrong size")
	}
	if len(rocksim.ExperimentIDs()) != 21 {
		t.Errorf("experiments = %d", len(rocksim.ExperimentIDs()))
	}
}

func TestFacadeChip(t *testing.T) {
	w1, _ := rocksim.BuildWorkload("dense", rocksim.ScaleTest)
	w2, _ := rocksim.BuildWorkload("gcc", rocksim.ScaleTest)
	opts := rocksim.DefaultOptions()
	chip, err := rocksim.NewChip(rocksim.SST, []*rocksim.Program{w1.Program, w2.Program}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rocksim.RunChip(chip, opts); err != nil {
		t.Fatal(err)
	}
	if chip.Throughput() <= 0 {
		t.Error("no throughput")
	}
}
