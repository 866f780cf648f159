package sim

import (
	"strings"
	"testing"
	"time"

	"rocksim/internal/bpred"
	"rocksim/internal/faults"
	"rocksim/internal/obs"
)

// goldenDefaultFingerprint is the canonical fingerprint of
// DefaultOptions, frozen. A run cache is only content-addressed if its
// keys are stable across process runs and binary rebuilds — a
// fingerprint that drifts (as an old "%+v" encoding did when a config
// struct gained a pointer field, printing its hex address) silently
// turns every cached entry into a miss, or worse, keys distinct
// configurations identically. If a deliberate configuration or encoding
// change lands, update this constant in the same commit.
const goldenDefaultFingerprint = `{"hier":{"L1I":{"Name":"L1I","SizeBytes":32768,"Ways":4,"LineBytes":64,"HitLatency":1,"MSHRs":4},"L1D":{"Name":"L1D","SizeBytes":32768,"Ways":4,"LineBytes":64,"HitLatency":2,"MSHRs":8},"L2":{"Name":"L2","SizeBytes":4194304,"Ways":8,"LineBytes":64,"HitLatency":20,"MSHRs":32},"L2Banks":8,"DRAM":{"Latency":300,"Banks":16,"BankBusy":24},"Prefetch":"none","Stride":{"Entries":0,"Degree":0,"MinConfidence":0},"DTLB":{"Entries":0,"Ways":0,"PageBits":0,"MissLatency":0}},"pred":{"Kind":"gshare","Share":"part","GshareBits":14,"BTBEntries":2048,"RASDepth":8,"TageTables":4,"TageTableBits":10,"TageTagBits":9},"inorder":{"Width":2,"MaxOutstandingLoads":4,"StoreBufferSize":8,"TakenPenalty":2,"MispredictPenalty":8},"ooo":{"FetchWidth":2,"IssueWidth":2,"CommitWidth":2,"ROBSize":32,"IQSize":16,"LSQSize":16,"SpecLoads":true,"TakenPenalty":1,"MispredictPenalty":10},"ooo_lg":{"FetchWidth":4,"IssueWidth":4,"CommitWidth":4,"ROBSize":128,"IQSize":64,"LSQSize":64,"SpecLoads":true,"TakenPenalty":1,"MispredictPenalty":14},"sst":{"Width":2,"ReplayWidth":2,"Checkpoints":4,"DQSize":64,"SSBSize":32,"SecondStrand":true,"ScoutOnDQFull":false,"DeferLongOps":true,"LongOpMinLatency":10,"CheckpointPerMiss":true,"CheckpointOnDeferredBranch":true,"TakenPenalty":2,"MispredictPenalty":8,"RollbackPenalty":6,"SecureDelayOnMiss":false,"SecureNoNAForward":false,"SecureEagerSSBFlush":false},"max_cycles":0,"timeout_ns":0,"livelock_window":0,"faults":null}`

func TestFingerprintGolden(t *testing.T) {
	got := DefaultOptions().Fingerprint()
	if got != goldenDefaultFingerprint {
		t.Errorf("DefaultOptions fingerprint drifted:\n got  %s\n want %s", got, goldenDefaultFingerprint)
	}
}

// TestFingerprintNoAddresses is the regression test for the original
// bug: the "%+v" encoding printed the *faults.Plan (and any future
// pointer field) as a hex address, different every process run.
func TestFingerprintNoAddresses(t *testing.T) {
	opts := DefaultOptions()
	opts.Faults = faults.Random(7, 200_000)
	opts.Sink = obs.NewCollector(obs.NewTrace(), obs.NewRegistry())
	opts.Metrics = obs.NewRegistry()
	opts.MaxCycles = 123456
	opts.Timeout = 3 * time.Second
	for _, fp := range []string{opts.Fingerprint(), opts.ShapeFingerprint(), PoolKey(Shape{Kind: KindSSTBig}, opts), PoolKey(Shape{Kind: KindSST, Topo: TopoCMP, Width: 4}, opts)} {
		if strings.Contains(fp, "0x") {
			t.Errorf("fingerprint leaks a pointer address: %s", fp)
		}
	}
}

func TestFingerprintStableAndDiscriminating(t *testing.T) {
	opts := DefaultOptions()
	opts.Faults = faults.Random(7, 200_000)
	if a, b := opts.Fingerprint(), opts.Fingerprint(); a != b {
		t.Errorf("fingerprint unstable across calls:\n %s\n %s", a, b)
	}

	// Observability hooks and NoFastForward must not enter the key: they
	// observe or pace a run without changing its simulated outcome.
	hooked := opts
	hooked.Sink = obs.NewCollector(obs.NewTrace(), obs.NewRegistry())
	hooked.Metrics = obs.NewRegistry()
	hooked.NoFastForward = true
	if hooked.Fingerprint() != opts.Fingerprint() {
		t.Error("observability hooks changed the fingerprint")
	}

	// Every simulation-affecting knob must discriminate.
	mutations := map[string]func(*Options){
		"hier": func(o *Options) { o.Hier.L2.SizeBytes *= 2 },
		"pred": func(o *Options) { o.Pred.GshareBits++ },
		// Predictor kind and share mode must discriminate on their own:
		// two runs differing only here may never share a cache or pool
		// entry (a TAGE machine is not a reset gshare machine).
		"predkind":  func(o *Options) { o.Pred.Kind = bpred.TAGE },
		"predshare": func(o *Options) { o.Pred.Share = bpred.ShareHashed },
		"tagetbl":   func(o *Options) { o.Pred.TageTables = 3 },
		"tagebits":  func(o *Options) { o.Pred.TageTableBits++ },
		"tagetag":   func(o *Options) { o.Pred.TageTagBits++ },
		"inorder":   func(o *Options) { o.InOrder.Width++ },
		"ooo":       func(o *Options) { o.OOO.ROBSize++ },
		"ooolg":     func(o *Options) { o.OOOLg.ROBSize++ },
		"sst":       func(o *Options) { o.SST.DQSize++ },
		"secdelay":  func(o *Options) { o.SST.SecureDelayOnMiss = true },
		"secnofwd":  func(o *Options) { o.SST.SecureNoNAForward = true },
		"secssb":    func(o *Options) { o.SST.SecureEagerSSBFlush = true },
		"cycles":    func(o *Options) { o.MaxCycles = 99 },
		"livelock":  func(o *Options) { o.LivelockWindow = 99 },
		"faults":    func(o *Options) { o.Faults = faults.Random(8, 200_000) },
	}
	for name, mutate := range mutations {
		m := opts
		mutate(&m)
		if m.Fingerprint() == opts.Fingerprint() {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}
}
