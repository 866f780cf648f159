package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/cpu"
	"rocksim/internal/experiments"
	"rocksim/internal/faults"
	"rocksim/internal/mem"
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

// TestCellRejectsUnboundedOptions: every option that sizes an
// allocation is bounded on /v1/cell — an oversized one is a 400 naming
// the field, and no machine is built for it.
func TestCellRejectsUnboundedOptions(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	for _, tc := range []struct {
		field string
		set   func(o *sim.Options)
	}{
		{"Pred.GshareBits", func(o *sim.Options) { o.Pred.GshareBits = 40 }},
		{"Pred.TageTableBits", func(o *sim.Options) { o.Pred.TageTableBits = 40 }},
		{"Pred.BTBEntries", func(o *sim.Options) { o.Pred.BTBEntries = 1 << 40 }},
		{"Pred.RASDepth", func(o *sim.Options) { o.Pred.RASDepth = MaxSize + 1 }},
		{"OOOLg.ROBSize", func(o *sim.Options) { o.OOOLg.ROBSize = 1 << 40 }},
		{"OOO.LSQSize", func(o *sim.Options) { o.OOO.LSQSize = -1 }},
		{"InOrder.StoreBufferSize", func(o *sim.Options) { o.InOrder.StoreBufferSize = 1 << 40 }},
		{"Hier.L2.SizeBytes", func(o *sim.Options) { o.Hier.L2.SizeBytes = 1 << 50 }},
		{"Hier.L1D.MSHRs", func(o *sim.Options) { o.Hier.L1D.MSHRs = 1 << 40 }},
		{"Hier.L1D", func(o *sim.Options) { o.Hier.L1D.SizeBytes, o.Hier.L1D.LineBytes = 64<<20, 1 }},
		{"Hier.L2Banks", func(o *sim.Options) { o.Hier.L2Banks = 1 << 40 }},
		{"Hier.DRAM.Banks", func(o *sim.Options) { o.Hier.DRAM.Banks = 1 << 40 }},
		{"Hier.Stride.Entries", func(o *sim.Options) { o.Hier.Stride.Entries = 1 << 40 }},
		{"Hier.DTLB.Entries", func(o *sim.Options) { o.Hier.DTLB.Entries = 1 << 40 }},
		{"Hier.DTLB.PageBits", func(o *sim.Options) { o.Hier.DTLB.PageBits = 40 }},
	} {
		opts := sim.DefaultOptions()
		tc.set(&opts)
		resp, body := postJSON(t, ts.URL, "/v1/cell", cellBody(t, opts))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.field, resp.StatusCode, body)
		} else if !strings.Contains(string(body), tc.field) {
			t.Errorf("%s: refusal does not name the field: %s", tc.field, body)
		}
	}
	if _, built := r.PoolStats(); built != 0 {
		t.Errorf("refused cells built %d machines", built)
	}
}

// TestCellRejectsUnboundedChip: every cache of a chip may sit within
// its own bound while the chip's total does not — 64 cores of two
// 64 MiB L1s would build about 7 GB of tag store. /v1/cell bounds the
// cache lines summed over the cell's cores and the shared L2, and a
// refused chip builds nothing.
func TestCellRejectsUnboundedChip(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	spec, err := workload.Build("chase", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	chip := func(topo sim.Topology, cores int) sim.Cell {
		c := sim.Cell{Kind: sim.KindInOrder, Topo: topo}
		for i := 0; i < cores; i++ {
			if topo == sim.TopoSharedCMP {
				c.Entries = append(c.Entries, spec.Program.Entry)
				continue
			}
			c.Progs = append(c.Progs, spec.Program)
		}
		if topo == sim.TopoSharedCMP {
			c.Progs = []*asm.Program{spec.Program}
		}
		return c
	}
	for _, tc := range []struct {
		name string
		cell sim.Cell
		set  func(h *mem.HierConfig)
	}{
		{"cmp-64 of 64 MiB L1s", chip(sim.TopoCMP, 64), func(h *mem.HierConfig) {
			h.L1I.SizeBytes, h.L1D.SizeBytes = 64<<20, 64<<20
		}},
		{"shared-cmp-64 of 64 MiB L1s", chip(sim.TopoSharedCMP, 64), func(h *mem.HierConfig) {
			h.L1I.SizeBytes, h.L1D.SizeBytes = 64<<20, 64<<20
		}},
		{"cmp-4 of 64 MiB L1Ds and L2", chip(sim.TopoCMP, 4), func(h *mem.HierConfig) {
			h.L1D.SizeBytes, h.L2.SizeBytes = 64<<20, 64<<20
		}},
	} {
		opts := sim.DefaultOptions()
		tc.set(&opts.Hier)
		resp, body := postJSON(t, ts.URL, "/v1/cell", cellJSON(t, NewCellRequest(tc.cell, "test", opts)))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, body)
		} else if !strings.Contains(string(body), "cache lines") {
			t.Errorf("%s: refusal does not name the cache-line bound: %s", tc.name, body)
		}
	}
	if _, built := r.PoolStats(); built != 0 {
		t.Errorf("refused chips built %d machines", built)
	}
}

// TestCellRejectsUnknownEnums: an enum value outside its names is a 400
// on the wire — never a run of another predictor, share mode or
// prefetcher under a key of its own — and the sender cannot encode one.
func TestCellRejectsUnknownEnums(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	body := cellBody(t, sim.DefaultOptions())
	for _, tc := range []struct{ valid, bad string }{
		{`"Kind":"gshare"`, `"Kind":"bogus"`},
		{`"Kind":"gshare"`, `"Kind":7`},
		{`"Share":"part"`, `"Share":"bogus"`},
		{`"Share":"part"`, `"Share":7`},
		{`"Prefetch":"none"`, `"Prefetch":"bogus"`},
		{`"Prefetch":"none"`, `"Prefetch":7`},
	} {
		if strings.Count(body, tc.valid) != 1 {
			t.Fatalf("wire body does not carry %s exactly once: %s", tc.valid, body)
		}
		resp, got := postJSON(t, ts.URL, "/v1/cell", strings.Replace(body, tc.valid, tc.bad, 1))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.bad, resp.StatusCode, got)
		}
	}
	if _, built := r.PoolStats(); built != 0 {
		t.Errorf("refused cells built %d machines", built)
	}

	for name, set := range map[string]func(o *sim.Options){
		"pred kind":  func(o *sim.Options) { o.Pred.Kind = 7 },
		"share mode": func(o *sim.Options) { o.Pred.Share = 7 },
		"prefetcher": func(o *sim.Options) { o.Hier.Prefetch = 7 },
	} {
		opts := sim.DefaultOptions()
		set(&opts)
		if _, err := json.Marshal(WireFromOptions(opts)); err == nil {
			t.Errorf("%s 7 encoded for the wire", name)
		}
	}
}
