package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"

	"rocksim/internal/experiments"
	"rocksim/internal/serve"
	"rocksim/internal/serve/client"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// goldenJSON pins the simulated output byte for byte: a speed-only
// change that alters any simulated statistic fails the benchmark.
// Regenerate with -update-golden after an intended model change.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// goldenFile is where -update-golden writes, relative to cmd/rockbench.
const goldenFile = "testdata/golden.json"

// golden holds sha256 digests of every output the benchmark checks.
type golden struct {
	// Run maps "kind/workload" to the digest of the /v1/run body at test
	// scale. The body does not depend on max_cycles, cache hits or the
	// instance pool, so one digest serves every request for the cell.
	Run map[string]string `json:"run"`
	// Grid maps an experiment id to the digest of its Result.Fprint text
	// at test scale (sstbench output without its wall-clock line).
	Grid map[string]string `json:"grid"`
}

func loadGolden(data []byte) (*golden, error) {
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %v", err)
	}
	return &g, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func (g *golden) check(table map[string]string, key string, body []byte) error {
	want, ok := table[key]
	if !ok {
		return fmt.Errorf("no golden digest for %s (run -update-golden)", key)
	}
	if got := digest(body); got != want {
		return fmt.Errorf("%s: output digest %.12s differs from golden %.12s", key, got, want)
	}
	return nil
}

// checkRun verifies a /v1/run body for the cell "kind/workload".
func (g *golden) checkRun(cell string, body []byte) error { return g.check(g.Run, cell, body) }

// checkGrid verifies an experiment's rendered text.
func (g *golden) checkGrid(id string, text []byte) error { return g.check(g.Grid, id, text) }

// goldenCells lists every cell some workload requests, sorted.
func goldenCells() []cell {
	seen := map[string]bool{}
	var wls []string
	for _, w := range workloads {
		for _, name := range w.cells {
			if !seen[name] {
				seen[name] = true
				wls = append(wls, name)
			}
		}
	}
	sort.Strings(wls)
	var out []cell
	for _, name := range wls {
		for _, k := range sim.Kinds {
			out = append(out, cell{Kind: k.String(), Workload: name})
		}
	}
	return out
}

// updateGolden recomputes every digest through the same paths the
// benchmark checks: /v1/run on a loopback rocksimd, and Runner.Run for
// the grid.
func updateGolden(path string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r := experiments.NewRunner()
	r.SetJobs(2)
	srv := serve.New(serve.Config{}, r)
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer func() {
		srv.StartDrain()
		hs.Close()
		srv.Wait()
	}()
	cl := &client.Client{Base: "http://" + ln.Addr().String()}

	g := golden{Run: map[string]string{}, Grid: map[string]string{}}
	for _, c := range goldenCells() {
		body, err := cl.Run(c.request(0))
		if err != nil {
			return fmt.Errorf("%s: %w", c.key(), err)
		}
		g.Run[c.key()] = digest(body)
	}
	gr := experiments.NewRunner()
	gr.SetJobs(2)
	for _, id := range experiments.All {
		res, err := gr.Run(id, workload.ScaleTest)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		var buf bytes.Buffer
		res.Fprint(&buf)
		g.Grid[id] = digest(buf.Bytes())
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
