package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"rocksim/internal/cpu"
	"rocksim/internal/experiments"
	"rocksim/internal/faults"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// chaseCell is the single-core sst/chase cell at test scale.
func chaseCell(t *testing.T) sim.Cell {
	t.Helper()
	spec, err := workload.Build("chase", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	return sim.CoreCell(sim.KindSST, spec.Program)
}

func cellJSON(t *testing.T, req CellRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func cellBody(t *testing.T, opts sim.Options) string {
	t.Helper()
	return cellJSON(t, NewCellRequest(chaseCell(t), "test", opts))
}

// TestCellSuccess: /v1/cell returns the statistics snapshot of the cell
// run, identical to what a local run of the same complete options
// produces.
func TestCellSuccess(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	opts := sim.DefaultOptions()
	resp, body := postJSON(t, ts.URL, "/v1/cell", cellBody(t, opts))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Compute-Us") == "" {
		t.Error("no X-Compute-Us header")
	}
	var cr CellResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.ErrClass != "" || cr.Cell == nil {
		t.Fatalf("response not a success snapshot: %+v", cr)
	}

	spec, err := workload.Build("chase", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run(sim.KindSST, spec.Program, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := out.CellStats
	if cr.Cell.Cycles != want.Cycles || cr.Cell.Retired != want.Retired || cr.Cell.Kind != want.Kind {
		t.Fatalf("snapshot differs from local run: got (%v,%d,%d) want (%v,%d,%d)",
			cr.Cell.Kind, cr.Cell.Cycles, cr.Cell.Retired, want.Kind, want.Cycles, want.Retired)
	}
	if cr.Cell.Base != want.Base {
		t.Errorf("base stats differ:\nremote %+v\nlocal  %+v", cr.Cell.Base, want.Base)
	}
}

// TestCellDeterministicError: a simulation failure is a 200 with the
// error class and exact message in the body — it is a property of the
// cell, not the shard, so it must not look like shard unavailability.
func TestCellDeterministicError(t *testing.T) {
	fake := &fakeRunner{
		started: make(chan struct{}, 8),
		release: make(chan struct{}),
		cellErr: fmt.Errorf("cell: %w", cpu.ErrDeadline),
	}
	close(fake.release)
	ts := httptest.NewServer(newServer(Config{}, fake))
	defer ts.Close()

	resp, body := postJSON(t, ts.URL, "/v1/cell", cellBody(t, sim.DefaultOptions()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with in-body error; body: %s", resp.StatusCode, body)
	}
	var cr CellResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Cell != nil {
		t.Fatalf("failed cell carried a snapshot: %+v", cr)
	}
	if cr.ErrClass != experiments.ErrClassDeadline {
		t.Errorf("err class %q, want %q", cr.ErrClass, experiments.ErrClassDeadline)
	}
	if cr.ErrMsg != "cell: "+cpu.ErrDeadline.Error() {
		t.Errorf("err msg %q does not preserve the origin text", cr.ErrMsg)
	}
}

// TestCellFingerprintMismatch: a wire body whose options no longer match
// their recorded fingerprint is a protocol bug and must be refused, not
// simulated.
func TestCellFingerprintMismatch(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	req := NewCellRequest(chaseCell(t), "test", sim.DefaultOptions())
	req.Options.MaxCycles = 12345 // simulation-affecting edit after fingerprinting
	resp, body := postJSON(t, ts.URL, "/v1/cell", cellJSON(t, req))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body: %s", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e["error"] == "" {
		t.Fatalf("no error text in %s", body)
	}
}

// TestCellFaultPlanRoundTrip: a fault plan survives the wire in its
// canonical grammar; the shard's run sees the same plan a local run
// would.
func TestCellFaultPlanRoundTrip(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	opts := sim.DefaultOptions()
	fp, err := faults.Parse("seed=7;mem-jitter@0-5000:32;ckpt-deny@100-200")
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = fp
	resp, body := postJSON(t, ts.URL, "/v1/cell", cellBody(t, opts))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr CellResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Cell == nil {
		t.Fatalf("no snapshot: %+v", cr)
	}

	spec, err := workload.Build("chase", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run(sim.KindSST, spec.Program, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Cell.Cycles != out.Cycles || cr.Cell.Retired != out.Retired {
		t.Fatalf("faulted cell differs from local faulted run: got (%d,%d) want (%d,%d)",
			cr.Cell.Cycles, cr.Cell.Retired, out.Cycles, out.Retired)
	}
}
