package main

import (
	"bytes"
	"compress/flate"
	"math/rand/v2"
	"strings"
	"time"
)

// Host-speed calibration. On a shared VM the host's speed drifts by 20–35%
// over minutes as co-tenants come and go, far more than a run's own noise
// and more than any regression bound: two sets of runs of the same commit
// twenty minutes apart differed by up to 36%. So before every set-up and
// every pass, the benchmark times a fixed job that runs no rocksim code —
// compressing calibText with compress/flate — and reports every time as
// it would read on the reference host, where that job takes calibRef.
// Across runs on the 2-vCPU VM the job's time tracked each workload's pass
// time with a correlation of 0.86–0.99, and dividing by it cut the spread
// of pass times from 8–17% to 2–7%.
const calibRef = 85 * time.Millisecond

// calibText is the calibration input: 1 MiB of words from a fixed seed.
var calibText = func() []byte {
	r := rand.New(rand.NewPCG(1, 2))
	words := []string{"load", "store", "branch", "miss", "hit", "cycle", "strand", "checkpoint", "defer", "replay"}
	var b bytes.Buffer
	for b.Len() < 1<<20 {
		b.WriteString(words[r.IntN(len(words))])
		b.WriteByte(byte(' ' + r.IntN(3)))
	}
	return b.Bytes()
}()

// calibrate times one compression of calibText. Callers collect garbage
// first, so no collection lands inside it.
func calibrate() time.Duration {
	var buf bytes.Buffer
	t0 := time.Now()
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		panic(err) // only for an invalid level
	}
	w.Write(calibText)
	w.Close()
	return time.Since(t0)
}

// hostFactor is how much slower than the reference host this run's host
// ran: the median calibration time over calibRef.
func hostFactor(calib []time.Duration) float64 {
	s := make([]float64, len(calib))
	for i, d := range calib {
		s[i] = d.Seconds()
	}
	return median(s) / calibRef.Seconds()
}

// toReference rescales measured values to the reference host by their
// unit: times (ms, s) shrink by factor, rates (…/s) grow by it, and
// counts, ratios, shares and sizes stay as measured.
func toReference(specs []metricSpec, vals map[string]float64, factor float64) {
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			continue
		}
		switch {
		case s.Unit == "ms" || s.Unit == "s":
			vals[s.Name] = v / factor
		case strings.HasSuffix(s.Unit, "/s"):
			vals[s.Name] = v * factor
		}
	}
}
