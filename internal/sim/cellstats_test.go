package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"rocksim/internal/workload"
)

// TestCellStatsRoundTrip: a snapshot survives JSON — the decoded
// outcome renders the identical report and re-encodes to the identical
// bytes, the property the fleet router's byte-identity rests on.
func TestCellStatsRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindSST, KindOOOLarge, KindInOrder} {
		spec, err := workload.Build("chase", workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Hier.DTLB.Entries = 64
		out, err := Run(k, spec.Program, opts)
		if err != nil {
			t.Fatal(err)
		}

		enc, err := json.Marshal(out.CellStats)
		if err != nil {
			t.Fatal(err)
		}
		var remote Outcome
		if err := json.Unmarshal(enc, &remote.CellStats); err != nil {
			t.Fatal(err)
		}
		if remote.Kind != out.Kind || remote.Cycles != out.Cycles || remote.Retired != out.Retired {
			t.Fatalf("%v: identity fields differ: got (%v,%d,%d) want (%v,%d,%d)", k,
				remote.Kind, remote.Cycles, remote.Retired, out.Kind, out.Cycles, out.Retired)
		}
		if remote.Base != out.Base || remote.Pred != out.Pred {
			t.Errorf("%v: base or predictor stats differ:\nremote %+v\nlive   %+v", k, remote.ThreadStats, out.ThreadStats)
		}
		if len(remote.Hier.DTLB) != 1 || remote.Hier.DTLB[0] != out.Hier.DTLB[0] {
			t.Errorf("%v: DTLB stats differ: %+v vs %+v", k, remote.Hier.DTLB, out.Hier.DTLB)
		}
		var lr, rr bytes.Buffer
		if err := NewReport(out).WriteJSON(&lr); err != nil {
			t.Fatal(err)
		}
		if err := NewReport(remote).WriteJSON(&rr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lr.Bytes(), rr.Bytes()) {
			t.Errorf("%v: report of the decoded snapshot differs: %s", k, firstDiff("live", lr.Bytes(), "decoded", rr.Bytes()))
		}
		// Re-encoding the decoded snapshot is stable (the router can
		// forward what it received without losing anything).
		enc2, err := json.Marshal(remote.CellStats)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("%v: re-encoding changed the snapshot: %s", k, firstDiff("encoded", enc, "re-encoded", enc2))
		}
	}
}

// TestSnapshotDetaches: an outcome's statistics share no storage with
// the live machine — mutating one run's histograms must not reach the
// next run on the same (pooled) instance.
func TestSnapshotDetaches(t *testing.T) {
	spec, err := workload.Build("chase", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(Shape{Kind: KindSST}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	run := func() Outcome {
		out, err := in.Run(context.Background(), CoreCell(KindSST, spec.Program), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := run()
	if first.SST == nil || first.SST.DQOcc == nil || first.Hier.LoadMissLat == nil {
		t.Fatal("no histograms in snapshot")
	}
	dq, lat := first.SST.DQOcc.Mean(), first.Hier.LoadMissLat.Mean()
	first.SST.DQOcc.Add(1_000_000)
	first.Hier.LoadMissLat.Add(1_000_000)
	second := run()
	if got := second.SST.DQOcc.Mean(); got != dq {
		t.Errorf("snapshot shares DQ histogram storage with the live core: mean %v -> %v", dq, got)
	}
	if got := second.Hier.LoadMissLat.Mean(); got != lat {
		t.Errorf("snapshot shares miss-latency storage with the live hierarchy: mean %v -> %v", lat, got)
	}
}
