// Command perfbench is the repository benchmark. It drives the system only
// through its public functions, on one of three workloads:
//
//	stream    pva IOC → pva mirror → core.StreamingService → msgq → core.DecodePreview,
//	          over loopback TCP, open loop at a fixed frame cadence
//	file      core.RunScanPipeline back to back (closed loop), then every
//	          level-0 slice fetched through the tiled HTTP handler
//	campaign  the scenario corpus replayed through scenario.NewRunner / Runner.Run
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload stream --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, taken
// from a traced phase plus replays of the same inputs through each layer.
// The line before it stamps the machine the numbers came from. README.md
// in this directory lists every metric and what it means per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// setupRounds is how many times a run brings the workload up; setup_s is
// the median, so a single slow round does not decide it.
const setupRounds = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one way of loading the system. A workload value is set up
// once, measured in one or two timed phases, optionally replayed layer by
// layer, and closed.
type workload interface {
	// setup generates the seeded inputs and brings the system up, warmed.
	setup(seed int64) error
	// measure runs the timed loop until the deadline. tr is nil on an
	// untraced phase; on a traced one every call into a layer records a
	// span or sample there.
	measure(until time.Time, tr *tracer) (*phase, error)
	// replay re-runs generated inputs through each layer's public
	// function on its own, for per-frame and per-stage costs.
	replay(tr *tracer) error
	close()
}

func newWorkload(name, dir string) (workload, error) {
	switch name {
	case "stream":
		return newStream(), nil
	case "file":
		return newFile(dir), nil
	case "campaign":
		return newCampaign(corpusDir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want stream, file or campaign)", name)
}

// corpusDir holds the scenario specs and goldens, relative to the
// repository root the benchmark runs from.
const corpusDir = "internal/scenario/testdata"

func main() {
	name := flag.String("workload", "", "stream, file or campaign")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	probe := flag.Bool("rss-probe", false, "print the peak resident set of one campaign pass and exit (the campaign's memory probes)")
	flag.Parse()
	if *probe {
		rss, err := rssProbe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(rss)
		return
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// A map of strings, numbers and booleans always marshals.
	stamp, _ := json.Marshal(map[string]interface{}{"stamp": machineStamp(*name, *seed, *traced == 1)})
	fmt.Println(string(stamp))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up setupRounds times (keeping the last), then
// measures it. An untraced run is one phase of the full length; a traced
// run measures half untraced and half traced, so the difference between
// the two is the tracing overhead, then replays the layers.
func run(name string, seed int64, length time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var w workload
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if w != nil {
			w.close()
		}
		if w, err = newWorkload(name, dir); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	fmt.Fprintf(os.Stderr, "perfbench: %s set-up rounds (s): %.4f\n", name, setups)

	if !traced {
		ph, err := timedPhase(w, length, nil)
		if err != nil {
			return nil, err
		}
		ph.report(os.Stderr, name, "untraced")
		m := ph.endToEnd()
		m["setup_s"] = metric{median(setups), "s"}
		rss := peakRSSMB()
		if name == "campaign" {
			if rss, err = campaignPeakRSS(); err != nil {
				return nil, err
			}
		}
		m["peak_rss_mb"] = metric{rss, "MB"}
		return ph.result(m), nil
	}

	plain, err := timedPhase(w, length/2, nil)
	if err != nil {
		return nil, err
	}
	plain.report(os.Stderr, name, "untraced")
	tr := newTracer()
	ph, err := timedPhase(w, length/2, tr)
	if err != nil {
		return nil, err
	}
	ph.report(os.Stderr, name, "traced")
	if err := w.replay(tr); err != nil {
		return nil, fmt.Errorf("%s replay: %w", name, err)
	}
	tr.set("trace.overhead_quick_pct", overheadPct(plain.quick, ph.quick))
	tr.set("trace.overhead_full_pct", overheadPct(plain.full, ph.full))
	tr.set("e2e.quick_p90_ms", quantile(plain.quick, 0.9))
	tr.set("e2e.full_p90_ms", quantile(plain.full, 0.9))
	tr.set("e2e.scans_per_s", float64(plain.scans)/plain.wall.Seconds())
	ph.add(plain)
	return ph.result(tr.layerMetrics()), nil
}

// workRoot is where runs keep their scratch files, inside
// the checkout's build directory.
const workRoot = ".bench_build/work"

func timedPhase(w workload, length time.Duration, tr *tracer) (*phase, error) {
	runtime.GC()
	cpu0 := cpuTime()
	t0 := time.Now()
	ph, err := w.measure(t0.Add(length), tr)
	if err != nil {
		return nil, err
	}
	ph.wall = time.Since(t0)
	ph.cpu = cpuTime() - cpu0 - ph.detectorCPU
	return ph, nil
}

func overheadPct(plain, traced []float64) float64 {
	p := median(plain)
	if p == 0 {
		return 0
	}
	return 100 * (median(traced) - p) / p
}

// phase is what one timed loop observed.
type phase struct {
	// quick and full are the workload's two end-to-end latencies in ms:
	// stream — incremental preview / batch-fallback preview;
	// file — one slice over HTTP / one volume (pipeline minus acquisition);
	// campaign — building and running one scenario / the whole corpus.
	quick, full []float64
	// scans counts the scans whose result arrived and was correct (for
	// campaign, the simulated scans of the completed specs).
	scans     int
	attempted int
	failed    int
	// wrong lists outputs that were produced but incorrect; a late or
	// missing result is failed without being wrong.
	wrong []string
	late  int
	// cpu is the phase's process CPU minus detectorCPU, the simulated
	// detector's share that ran inside the measured calls.
	cpu, detectorCPU time.Duration
	wall             time.Duration
}

func (p *phase) fail(wrong bool, format string, args ...interface{}) {
	p.failed++
	if wrong {
		p.wrong = append(p.wrong, fmt.Sprintf(format, args...))
	}
}

// add folds o's samples and counts into p.
func (p *phase) add(o *phase) {
	p.quick = append(p.quick, o.quick...)
	p.full = append(p.full, o.full...)
	p.scans += o.scans
	p.attempted += o.attempted
	p.failed += o.failed
	p.wrong = append(p.wrong, o.wrong...)
	p.late += o.late
}

func (p *phase) endToEnd() map[string]metric {
	return map[string]metric{
		"quick_p50_ms":    {median(p.quick), "ms"},
		"full_p50_ms":     {median(p.full), "ms"},
		"success_pct":     {100 * float64(p.attempted-p.failed) / float64(max(p.attempted, 1)), "%"},
		"cpu_ms_per_scan": {float64(p.cpu.Microseconds()) / 1000 / float64(max(p.scans, 1)), "ms"},
	}
}

func (p *phase) result(m map[string]metric) *result {
	return &result{
		Correct:   len(p.wrong) == 0 && p.attempted > 0,
		Attempted: max(p.attempted, 1),
		Failed:    p.failed,
		Metrics:   m,
	}
}

// report writes the sample counts and the first few wrong outputs to w,
// so a reader can tell which percentile each tail has ten samples beyond.
func (p *phase) report(w *os.File, name, kind string) {
	fmt.Fprintf(w, "perfbench: %s %s phase: %d quick and %d full samples, %d scans, %d/%d failed (%d late) in %.1fs\n",
		name, kind, len(p.quick), len(p.full), p.scans, p.failed, p.attempted, p.late, p.wall.Seconds())
	for i, s := range p.wrong {
		if i == 5 {
			fmt.Fprintf(w, "perfbench:   … %d more\n", len(p.wrong)-i)
			break
		}
		fmt.Fprintln(w, "perfbench:   wrong:", s)
	}
}

// machineStamp records what the numbers were measured on; wall-clock
// figures compare only between runs with equal stamps.
func machineStamp(name string, seed int64, traced bool) map[string]interface{} {
	return map[string]interface{}{
		"workload":   name,
		"seed":       seed,
		"trace":      traced,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is stats.Quantile over an unsorted sample, 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Quantile(s, q)
}
