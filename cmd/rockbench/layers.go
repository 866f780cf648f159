package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"rocksim/internal/obs"
)

// reqTree is one traced daemon request reduced to the times, in ms, that
// the per-layer metrics need. The daemon's span tree is: request
// containing admission, queue-wait, cache-lookup, either cache-join or
// compute (which contains sim-run), and assemble.
type reqTree struct {
	request, admission, queueWait, cacheLookup, cacheJoin, compute, assemble float64
	// decodeBuild is the gap from the end of admission to the start of
	// queue-wait: body decode, workload.Build and option merge.
	decodeBuild float64
	// cacheKey is the gap from the end of queue-wait to the start of
	// cache-lookup: hashing the program image and options.
	cacheKey float64
	// requestSelf is request minus the part its children cover (it
	// includes both gaps above).
	requestSelf float64
	// computeSelf is compute minus sim-run: pool get or build, detach.
	computeSelf float64
	simRun      float64
	simKind     string
	cycles      uint64
	computed    bool
}

// parseTree reduces a daemon's flat span list (GET /v1/trace/{id}
// ?format=spans) to a reqTree.
func parseTree(spans []obs.SpanSnap) (reqTree, error) {
	var t reqTree
	var root *obs.SpanSnap
	kids := map[uint64][]obs.SpanSnap{}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 && s.Name == "request" && root == nil {
			root = s
		}
		kids[s.Parent] = append(kids[s.Parent], *s)
	}
	if root == nil {
		return t, fmt.Errorf("trace has no request span")
	}
	byName := map[string]obs.SpanSnap{}
	for _, c := range kids[root.ID] {
		if _, dup := byName[c.Name]; !dup {
			byName[c.Name] = c
		}
	}
	for _, name := range []string{"admission", "queue-wait", "cache-lookup", "assemble"} {
		if _, ok := byName[name]; !ok {
			return t, fmt.Errorf("trace has no %s span under request", name)
		}
	}
	adm, qw, cl := byName["admission"], byName["queue-wait"], byName["cache-lookup"]
	t.request = usToMs(root.DurUs)
	t.admission = usToMs(adm.DurUs)
	t.queueWait = usToMs(qw.DurUs)
	t.cacheLookup = usToMs(cl.DurUs)
	t.assemble = usToMs(byName["assemble"].DurUs)
	t.decodeBuild = usToMs(max(qw.StartUs-(adm.StartUs+adm.DurUs), 0))
	t.cacheKey = usToMs(max(cl.StartUs-(qw.StartUs+qw.DurUs), 0))
	t.requestSelf = usToMs(root.DurUs - covered(kids[root.ID]))
	if j, ok := byName["cache-join"]; ok {
		t.cacheJoin = usToMs(j.DurUs)
	}
	if c, ok := byName["compute"]; ok {
		t.computed = true
		t.compute = usToMs(c.DurUs)
		t.computeSelf = usToMs(c.DurUs - covered(kids[c.ID]))
		for _, s := range kids[c.ID] {
			if s.Name != "sim-run" {
				continue
			}
			t.simRun += usToMs(s.DurUs)
			for _, a := range s.Attrs {
				switch a.Key {
				case "kind":
					t.simKind = a.Value
				case "cycles":
					n, err := strconv.ParseUint(a.Value, 10, 64)
					if err != nil {
						return t, fmt.Errorf("sim-run cycles %q: %v", a.Value, err)
					}
					t.cycles += n
				}
			}
		}
	}
	return t, nil
}

// covered is the length of the union of the spans' intervals, in µs.
func covered(spans []obs.SpanSnap) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		iv = append(iv, [2]int64{s.StartUs, s.StartUs + s.DurUs})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	for _, v := range iv {
		switch {
		case first || v[0] >= end:
			total += v[1] - v[0]
			end, first = v[1], false
		case v[1] > end:
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// layerTimes splits one request's client round trip across the layers:
// http is everything outside the daemon's request span (client, TCP,
// and under gate-hit the gateway); serve is the request's own time plus
// admission and assemble, less the cache-key gap; experiments is the
// cache-key gap, queue wait, cache lookup or join and compute's own
// time; sim is sim-run. The four sum to rtt.
func (t reqTree) layerTimes(rtt float64) (http, serve, exps, sim float64) {
	http = rtt - t.request
	serve = t.requestSelf - t.cacheKey + t.admission + t.assemble
	exps = t.cacheKey + t.queueWait + t.cacheLookup + t.cacheJoin + t.computeSelf
	return http, serve, exps, t.simRun
}

// serviceLayers derives the span-based per-layer metrics from a traced
// pass's requests and their daemon trees (trees[i] belongs to rtts[i],
// both in ms).
func serviceLayers(rtts []float64, trees []reqTree) map[string]float64 {
	var rttSelf, decode, reqSelf, assemble, key, qw, lookup, compSelf, simRun []float64
	cycles := map[string]float64{}
	simMs := map[string]float64{}
	var sumRTT, sumHTTP, sumServe, sumExps, sumSim float64
	for i, t := range trees {
		rtt := rtts[i]
		rttSelf = append(rttSelf, rtt-t.request)
		decode = append(decode, t.decodeBuild)
		reqSelf = append(reqSelf, t.requestSelf)
		assemble = append(assemble, t.assemble)
		key = append(key, t.cacheKey)
		qw = append(qw, t.queueWait)
		lookup = append(lookup, t.cacheLookup)
		if t.computed {
			compSelf = append(compSelf, t.computeSelf)
		}
		if t.simKind != "" {
			simRun = append(simRun, t.simRun)
			cycles[t.simKind] += float64(t.cycles)
			simMs[t.simKind] += t.simRun
		}
		h, s, e, m := t.layerTimes(rtt)
		sumRTT += rtt
		sumHTTP += h
		sumServe += s
		sumExps += e
		sumSim += m
	}
	m := map[string]float64{
		"http.rtt_self_ms":              pct(rttSelf, 0.5),
		"serve.decode_build_ms":         pct(decode, 0.5),
		"serve.request_self_ms":         pct(reqSelf, 0.5),
		"serve.assemble_ms":             pct(assemble, 0.5),
		"experiments.cache_key_ms":      pct(key, 0.5),
		"experiments.queue_wait_ms.p50": pct(qw, 0.5),
		"experiments.queue_wait_ms.p98": pct(qw, tailQ),
		"experiments.cache_lookup_ms":   pct(lookup, 0.5),
		"experiments.compute_self_ms":   pct(compSelf, 0.5),
		"sim.run_ms.p50":                pct(simRun, 0.5),
		"sim.run_ms.p98":                pct(simRun, tailQ),
	}
	for kind, c := range cycles {
		if simMs[kind] > 0 {
			// cycles per ms / 1000 = millions of cycles per second.
			m["sim.mcycles_per_s."+kind] = c / simMs[kind] / 1000
		}
	}
	if sumRTT > 0 {
		m["share.http"] = sumHTTP / sumRTT
		m["share.serve"] = sumServe / sumRTT
		m["share.experiments"] = sumExps / sumRTT
		m["share.sim"] = sumSim / sumRTT
	}
	return m
}

// pct is the nearest-rank q-quantile of an unsorted sample (0 if empty).
func pct(values []float64, q float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	return nearestRank(d, q)
}

// pairTraces finds, for every successful request of a traced pass, the
// daemon request it caused: same cell and max_cycles, entering and
// leaving the daemon inside the client's send → reply window. With more
// than one client, the same cell may be in flight twice under gate-hit, so
// requests are paired in order of reply, each with the earliest-entering
// candidate left: every candidate of that request ends in time for all
// later replies, and the earliest is the one fewest of them can use.
func pairTraces(samples []sample, entries []tapEntry) ([]tapEntry, error) {
	type key struct {
		c  cell
		mc uint64
	}
	byKey := map[key][]int{}
	for j, e := range entries {
		k := key{e.cell, e.maxCycles}
		byKey[k] = append(byKey[k], j)
	}
	for _, js := range byKey {
		sort.Slice(js, func(a, b int) bool { return entries[js[a]].start.Before(entries[js[b]].start) })
	}
	order := make([]int, 0, len(samples))
	for i := range samples {
		if samples[i].err == nil {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return samples[order[a]].end.Before(samples[order[b]].end) })
	used := make([]bool, len(entries))
	out := make([]tapEntry, len(samples))
	for _, i := range order {
		s := &samples[i]
		found := false
		for _, j := range byKey[key{s.cell, s.maxCycles}] {
			e := &entries[j]
			if used[j] || e.start.Before(s.start) || e.end.After(s.end) {
				continue
			}
			used[j], out[i], found = true, *e, true
			break
		}
		if !found {
			return nil, fmt.Errorf("request %d (%s) has no daemon trace", i, s.cell.key())
		}
	}
	return out, nil
}

// fetchSpans reads one traced request's flat span list from its daemon.
func fetchSpans(hc *http.Client, e tapEntry) ([]obs.SpanSnap, error) {
	resp, err := hc.Get(e.base + "/v1/trace/" + e.id + "?format=spans")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET trace %s: status %d", e.id, resp.StatusCode)
	}
	var doc struct {
		Spans []obs.SpanSnap `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace %s: %v", e.id, err)
	}
	return doc.Spans, nil
}
