package main

import (
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/trace"
)

// perLayer is every per-layer metric a traced run prints, in print order,
// with its unit. A layer the workload does not exercise reads 0, which is
// itself the measurement: that layer did no work. Metrics ending in _ms or
// _us are medians of per-call samples; the rest are per-scan or per-pass
// medians of counters, or the single value named.
var perLayer = []struct{ name, unit string }{
	// stream: the wire, the per-frame fold and the preview codec.
	{"pva.publish_us", "us"},
	{"pva.encode_us", "us"},
	{"pva.decode_us", "us"},
	{"pva.relay_p50_us", "us"},
	{"pva.frames_dropped", "count"},
	{"pva.frames_missed", "count"},
	{"stream.wire_bytes_per_scan", "B"},
	{"stream.generator_late_p99_us", "us"},
	{"tomo.fold_us", "us"},
	{"tomo.finalize_us", "us"},
	{"tomo.quickpreview_ms", "ms"},
	{"core.encode_preview_us", "us"},
	{"core.decode_preview_us", "us"},
	{"msgq.send_recv_us", "us"},
	{"core.stage.cache_ms", "ms"},
	{"core.stage.finalize_ms", "ms"},
	{"core.stage.preview_send_ms", "ms"},
	// stream (batch fallback) and file both open a recon stage.
	{"core.stage.recon_ms", "ms"},
	// file: the pipeline's stages and the layers under them.
	{"core.stage.acquire_ms", "ms"},
	{"core.stage.write_raw_ms", "ms"},
	{"core.stage.outputs_ms", "ms"},
	{"dxfile.write_ms", "ms"},
	{"dxfile.read_ms", "ms"},
	{"dxfile.raw_mb", "MB"},
	{"tomo.normalize_ms", "ms"},
	{"tomo.recon_volume_ms", "ms"},
	{"tomo.rmse", "1"},
	{"zarr.write_ms", "ms"},
	{"zarr.mb", "MB"},
	{"tiff.write_ms", "ms"},
	{"zarr.slice_read_us", "us"},
	{"tiled.slice_http_us", "us"},
	// campaign: building and running the corpus, per pass.
	{"scenario.build_ms", "ms"},
	{"scenario.run_ms", "ms"},
	{"scenario.sim_s_per_wall_s", "s/s"},
	{"go.alloc_mb_build", "MB"},
	{"go.mallocs_build", "count"},
	{"go.alloc_mb_run", "MB"},
	{"go.mallocs_run", "count"},
	{"obslog.events", "count"},
	{"obslog.evicted", "count"},
	{"flow.runs", "count"},
	{"sched.dispatched", "count"},
	{"sched.deferred", "count"},
	{"sched.shed", "count"},
	{"simnet.bytes_moved", "B"},
	{"simnet.busy_s", "s"},
	// campaign: CPU self time by layer, from a profile of the traced phase.
	{"cpu.self_pct.sim", "%"},
	{"cpu.self_pct.simnet", "%"},
	{"cpu.self_pct.obslog", "%"},
	{"cpu.self_pct.sched", "%"},
	{"cpu.self_pct.flow", "%"},
	{"cpu.self_pct.transfer", "%"},
	{"cpu.self_pct.facility", "%"},
	{"cpu.self_pct.slo", "%"},
	{"cpu.self_pct.telemetry", "%"},
	{"cpu.self_pct.scenario", "%"},
	{"cpu.self_pct.core", "%"},
	{"cpu.self_pct.gc", "%"},
	{"cpu.self_pct.other", "%"},
	{"cpu.self_pct.runtime", "%"},
	// every workload: what tracing itself cost, traced minus untraced
	// median of the quick and full latencies, as a share of untraced.
	{"trace.overhead_quick_pct", "%"},
	{"trace.overhead_full_pct", "%"},
	// every workload: end-to-end figures from the untraced half that are
	// reported but not gated, because on a shared two-vCPU machine they
	// drift between runs by more than any end-to-end bound allows.
	{"e2e.quick_p90_ms", "ms"},
	{"e2e.full_p90_ms", "ms"},
	{"e2e.scans_per_s", "1/s"},
}

// tracer collects the per-layer view of a traced phase: span trees (the
// program's own trace.Span, so the streaming service and the file
// pipeline hang their stage spans in the same trees as the benchmark's
// spans around its calls), per-call samples and set values. Every method
// is nil-safe, so untraced code paths call them unconditionally.
type tracer struct {
	mu      sync.Mutex
	roots   []*trace.Span        // guarded by mu
	samples map[string][]float64 // guarded by mu
	values  map[string]float64   // guarded by mu
}

func newTracer() *tracer {
	return &tracer{samples: map[string][]float64{}, values: map[string]float64{}}
}

// root opens a span tree for one operation (a scan, a pass, a service's
// lifetime). It returns nil on an untraced phase.
func (t *tracer) root(name string) *trace.Span {
	if t == nil {
		return nil
	}
	sp := trace.NewRoot(name, time.Now())
	t.mu.Lock()
	t.roots = append(t.roots, sp)
	t.mu.Unlock()
	return sp
}

// sample records one per-call or per-scan observation of a metric.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// set fixes a metric's value, overriding any samples.
func (t *tracer) set(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = v
	t.mu.Unlock()
}

// timed runs fn and records its duration as a sample of name, scaled to
// the metric's unit (the _ms or _us suffix).
func (t *tracer) timed(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	t.sample(name, scaleTo(name, time.Since(t0)))
	return err
}

func scaleTo(name string, d time.Duration) float64 {
	if strings.HasSuffix(name, "_us") {
		return float64(d.Nanoseconds()) / 1e3
	}
	return float64(d.Nanoseconds()) / 1e6
}

// call opens a child span named for the layer metric it times, under
// parent (nil on untraced phases, where it costs nothing).
func call(parent *trace.Span, layer string) *trace.Span {
	return parent.StartChildStage(layer, layer, time.Now())
}

func end(sp *trace.Span) { sp.End(time.Now()) }

// spanMetric maps a span's stage to the metric its self time feeds: the
// benchmark's own spans carry the metric name as their stage, and the
// program's stage spans (cache, recon, finalize, …) map to core.stage.*.
func spanMetric(stage string) (string, bool) {
	for _, m := range perLayer {
		if m.name == stage || m.name == "core.stage."+stage+"_ms" {
			return m.name, true
		}
	}
	return "", false
}

// layerMetrics folds the span trees into samples and returns every
// per-layer metric: a set value, else the median of its samples, else 0.
func (t *tracer) layerMetrics() map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, root := range t.roots {
		root.Walk(func(depth int, sp *trace.Span) {
			if depth == 0 || !sp.Ended() {
				return
			}
			name, ok := spanMetric(sp.Stage())
			if !ok {
				return
			}
			self := sp.Duration()
			for _, c := range sp.Children() {
				self -= c.Duration()
			}
			t.samples[name] = append(t.samples[name], scaleTo(name, max(self, 0)))
		})
	}
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		v, ok := t.values[m.name]
		if !ok {
			v = median(t.samples[m.name])
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
