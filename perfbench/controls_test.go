package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"repro/internal/vol"
)

// Each correctness check is shown able to fail: a short clean phase must
// pass, and the same phase with one output tampered with must fail, so
// that success_pct drops below 100 and the result is marked incorrect.

func shortPhase(t *testing.T, w workload) *phase {
	t.Helper()
	ph, err := w.measure(time.Now().Add(time.Second), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ph
}

// requireClean allows late previews, which a slow machine or the race
// detector can cause, but nothing wrong or missing.
func requireClean(t *testing.T, ph *phase) {
	t.Helper()
	if ph.attempted == 0 || ph.failed != ph.late || len(ph.wrong) != 0 {
		t.Fatalf("clean phase: %d of %d failed (%d late): %v", ph.failed, ph.attempted, ph.late, ph.wrong)
	}
}

func requireCaught(t *testing.T, ph *phase) {
	t.Helper()
	res := ph.result(ph.endToEnd())
	if res.Correct || ph.failed == 0 || res.Metrics["success_pct"].Value >= 100 {
		t.Fatalf("tampered phase passed: correct=%v, %d of %d failed, success_pct %v",
			res.Correct, ph.failed, ph.attempted, res.Metrics["success_pct"].Value)
	}
}

func TestStreamCorruptedPreviewFails(t *testing.T) {
	s := newStream()
	if err := s.setup(3); err != nil {
		t.Fatal(err)
	}
	defer s.close()
	requireClean(t, shortPhase(t, s))

	// Flip a high bit of the last sample of the last slice.
	s.tamper = func(msg []byte) []byte {
		bad := append([]byte(nil), msg...)
		bad[len(bad)-1] ^= 0x40
		return bad
	}
	ph := shortPhase(t, s)
	requireCaught(t, ph)
	if len(ph.wrong) != ph.attempted {
		t.Fatalf("%d of %d corrupted previews caught", len(ph.wrong), ph.attempted)
	}
}

func TestFileVolumeFromWrongScanFails(t *testing.T) {
	f := newFile(t.TempDir())
	if err := f.setup(3); err != nil {
		t.Fatal(err)
	}
	defer f.close()
	requireClean(t, shortPhase(t, f))

	// Hand back the previous scan's volume, a different pooled sample.
	f.tamper = func(_ int, _ *vol.Volume) *vol.Volume { return f.prev }
	requireCaught(t, shortPhase(t, f))
}

func TestCampaignMutatedGoldenFails(t *testing.T) {
	c := newCampaign("../" + corpusDir)
	if err := c.setup(3); err != nil {
		t.Fatal(err)
	}
	requireClean(t, shortPhase(t, c))

	g := c.specs[0].golden
	i := bytes.IndexByte(g, ':') + 2
	c.specs[0].golden = append(append(append([]byte(nil), g[:i]...), 'X'), g[i+1:]...)
	ph := shortPhase(t, c)
	requireCaught(t, ph)
	if len(ph.wrong) == 0 {
		t.Fatal("mutated golden not reported as a wrong outcome")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the benchmark prints in step: the same names, units, in both modes.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := (&phase{}).endToEnd()
	e2e["setup_s"] = metric{1, "s"}
	e2e["peak_rss_mb"] = metric{1, "MB"}
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v, present %v", m.Name, m.Unit, got, ok)
		}
	}
	layers := newTracer().layerMetrics()
	if len(spec.PerLayer) != len(layers) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(spec.PerLayer), len(layers))
	}
	for _, m := range spec.PerLayer {
		if got, ok := layers[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s (%s): printed as %+v, present %v", m.Name, m.Unit, got, ok)
		}
	}
}

// TestCPUSelfShares profiles a loop in this package and checks the
// profile decodes into shares that cover all of the samples.
func TestCPUSelfShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		x += float64(len(sort.IntSlice{3, 1, 2}))
	}
	pprof.StopCPUProfile()
	shares, err := cpuSelfShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if sum < 99.9 || sum > 100.1 || shares["runtime"] < 50 {
		t.Fatalf("shares %v (sum %.2f, x %v): want the loop, which has no repository frame, under runtime, summing to 100", shares, sum, x)
	}
}
