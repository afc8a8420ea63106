package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dxfile"
	"repro/internal/scicat"
	"repro/internal/stats"
	"repro/internal/tiff"
	"repro/internal/tiled"
	"repro/internal/tomo"
	"repro/internal/trace"
	"repro/internal/vol"
	"repro/internal/zarr"
)

// The file workload's scan geometry: fileSize² slices, fileSlices deep,
// fileAngles projections (cmd/beamline's default 64×16×96), over a pool
// of filePool samples. Scans take their ids from fileSlots rotating
// names, so each scan overwrites the files of the scan fileSlots before
// it: creating and deleting a scan's ~25 files every scan, on a
// filesystem mounted with online discard, slows every later file
// operation the longer the benchmark has run, and the figures would
// follow the disk's history instead of the code.
const (
	fileSize   = 64
	fileSlices = 16
	fileAngles = 96
	filePool   = 3
	fileSlots  = 4
	// A volume passes when its RMSE against its own phantom is at most
	// fileRMSEBound (attenuation units) and at most fileRMSERatio of its
	// RMSE against every other pooled phantom. Over 12 seeds, correct
	// volumes sat at 0.06–0.21 and a ratio of 0.11–0.47; a volume
	// reconstructed from another scan's sample sat at a ratio above 2.1.
	fileRMSEBound = 0.3
	fileRMSERatio = 0.75
	// detectorEvery: after every detectorEvery-th scan the workload
	// repeats that scan's tomo.Acquire on its own, to learn the simulated
	// detector's CPU cost under the same conditions as the scans.
	detectorEvery = 2
)

// fileAcquire is the simulated detector's configuration for scan k.
func fileAcquire(seed int64, k int) tomo.AcquireOptions {
	return tomo.AcquireOptions{I0: 5e4, GainVariation: 0.02, Seed: seed*7919 + int64(k)}
}

// fileRecon is how cmd/beamline configures the file branch.
var fileRecon = tomo.ReconOptions{Algorithm: tomo.AlgGridrec, AutoCOR: true}

type file struct {
	dir    string
	seed   int64
	truths []*vol.Volume
	theta  []float64
	// detector counts, per timed phase, the pipeline calls and the
	// repeated tomo.Acquire calls with their process CPU.
	// RunScanPipeline runs the simulated detector inside the call; its
	// CPU is not the system's, so it is taken off cpu_ms_per_scan as
	// AcquireDur is taken off the volume latency.
	detector struct {
		pipelines, repeats int
		cpu                time.Duration
	}

	catalog *scicat.Catalog
	access  *tiled.Server
	srv     *http.Server
	srvDone chan error
	client  *http.Client
	base    string
	// handlerTracer is the tracer the HTTP handler wrapper samples into;
	// nil outside traced phases. The handler runs on server goroutines.
	handlerTracer atomic.Pointer[tracer]

	next int

	// tamper, when set, replaces each returned volume before it is
	// checked; the negative controls use it to hand back another scan's
	// volume.
	tamper func(k int, v *vol.Volume) *vol.Volume
	prev   *vol.Volume // the previous scan's volume, for tamper
}

func newFile(dir string) *file { return &file{dir: dir} }

func (f *file) setup(seed int64) error {
	f.seed = seed
	f.theta = tomo.UniformAngles(fileAngles)
	for p := 0; p < filePool; p++ {
		f.truths = append(f.truths, sampleVolume(p, seed, fileSize, fileSlices))
	}
	f.catalog = scicat.New()
	f.access = tiled.NewServer()
	handler := f.access.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.base = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		handler.ServeHTTP(w, r)
		f.handlerTracer.Load().sample("tiled.slice_http_us", scaleTo("_us", time.Since(t0)))
	})}
	f.srvDone = make(chan error, 1)
	go func() { f.srvDone <- f.srv.Serve(ln) }()
	f.client = &http.Client{Timeout: 10 * time.Second}
	// Warm-up: one scan end to end, checked, then discarded.
	ph := &phase{}
	f.scan(ph, nil)
	if ph.failed > 0 {
		return fmt.Errorf("warm-up scan failed: %v", ph.wrong)
	}
	return nil
}

func (f *file) close() {
	if f.srv != nil {
		f.srv.Close()
		<-f.srvDone
		f.client.CloseIdleConnections()
	}
}

// measure runs scans back to back (a closed loop: the next scan starts
// when the viewer has fetched the last one's slices) until the deadline.
func (f *file) measure(until time.Time, tr *tracer) (*phase, error) {
	f.handlerTracer.Store(tr)
	defer f.handlerTracer.Store(nil)
	f.detector.pipelines, f.detector.repeats, f.detector.cpu = 0, 0, 0
	ph := &phase{}
	for time.Now().Before(until) {
		k := f.next
		f.scan(ph, tr)
		if k%detectorEvery == 0 {
			c0 := cpuTime()
			tomo.Acquire(f.truths[k%len(f.truths)], f.theta, fileSize, fileAcquire(f.seed, k))
			f.detector.cpu += cpuTime() - c0
			f.detector.repeats++
		}
	}
	// The repeats' own CPU, plus their mean for every pipeline call.
	d := f.detector
	if d.repeats > 0 {
		ph.detectorCPU = d.cpu + d.cpu*time.Duration(d.pipelines)/time.Duration(d.repeats)
	}
	return ph, nil
}

// scan runs one RunScanPipeline as cmd/beamline configures it, plus the
// TIFF stack the production flows write, then fetches every level-0 slice
// through the tiled HTTP handler. The pipeline and each fetch count as
// one attempted operation each.
func (f *file) scan(ph *phase, tr *tracer) {
	k := f.next
	f.next++
	id := "scan-" + strconv.Itoa(k%fileSlots)
	truth := f.truths[k%len(f.truths)]
	work := filepath.Join(f.dir, id)

	root := tr.root(id)
	ctx := trace.NewContext(context.Background(), root)
	ph.attempted++
	t0 := time.Now()
	f.detector.pipelines++
	res, err := core.RunScanPipeline(ctx, id, truth, f.theta, fileAcquire(f.seed, k),
		core.PipelineOptions{
			WorkDir: work, Recon: fileRecon, WriteTIFF: true,
			Catalog: f.catalog, Tiled: f.access,
		})
	elapsed := time.Since(t0)
	root.End(time.Now())
	if err != nil {
		ph.fail(true, "%s: pipeline: %v", id, err)
		return
	}
	v := res.Volume
	if f.tamper != nil {
		v = f.tamper(k, v)
	}
	defer func() { f.prev = res.Volume }()
	tr.sample("dxfile.raw_mb", float64(res.RawBytes)/1e6)
	tr.sample("zarr.mb", float64(res.ZarrBytes)/1e6)
	ok := true
	if v.W != truth.W || v.H != truth.H || v.D != truth.D {
		ph.fail(true, "%s: volume %dx%dx%d, want %dx%dx%d", id, v.W, v.H, v.D, truth.W, truth.H, truth.D)
		return
	}
	rmse := stats.RMSE(truth.Data, v.Data)
	tr.sample("tomo.rmse", rmse)
	if err := f.checkVolume(truth, v, rmse); err != nil {
		ph.fail(true, "%s: %v", id, err)
		ok = false
	} else {
		ph.full = append(ph.full, float64((elapsed-res.AcquireDur).Nanoseconds())/1e6)
	}

	for z := 0; z < v.D; z++ {
		ph.attempted++
		t0 := time.Now()
		im, err := f.fetchSlice(id, z)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			ph.fail(true, "%s slice %d: %v", id, z, err)
			ok = false
			continue
		}
		want := v.Slice(z)
		for i, x := range want.Pix {
			want.Pix[i] = float64(float32(x))
		}
		if err := sameImage(im, want); err != nil {
			ph.fail(true, "%s slice %d: %v", id, z, err)
			ok = false
			continue
		}
		ph.quick = append(ph.quick, ms)
	}
	if ok {
		ph.scans++
	}
}

// checkVolume requires the volume to match its own phantom within the
// bound, and clearly better than any other pooled phantom.
func (f *file) checkVolume(truth, v *vol.Volume, rmse float64) error {
	if rmse > fileRMSEBound {
		return fmt.Errorf("volume RMSE %.4f against its phantom exceeds %.2f", rmse, fileRMSEBound)
	}
	for p, other := range f.truths {
		if other == truth {
			continue
		}
		if alt := stats.RMSE(other.Data, v.Data); rmse > fileRMSERatio*alt {
			return fmt.Errorf("volume RMSE %.4f against its phantom but %.4f against pooled sample %d", rmse, alt, p)
		}
	}
	return nil
}

func (f *file) fetchSlice(id string, z int) (*vol.Image, error) {
	resp, err := f.client.Get(f.base + "/api/volumes/" + id + "/slice/0/" + strconv.Itoa(z))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	return tiled.DecodeSlice(body)
}

// replay times the layers under the pipeline one at a time on the first
// pooled sample: the DXchange write and read, normalization, the volume
// reconstruction, the Zarr and TIFF writes, and Zarr slice reads.
func (f *file) replay(tr *tracer) error {
	const reps = 3
	dir := filepath.Join(f.dir, "replay")
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	acq := tomo.Acquire(f.truths[0], f.theta, fileSize, fileAcquire(f.seed, 0))
	raw := filepath.Join(dir, "replay.dxf")
	meta := dxfile.ScanMeta{ScanID: "replay", Beamline: "8.3.2", Sample: "replay"}
	for r := 0; r < reps; r++ {
		zpath := filepath.Join(dir, fmt.Sprintf("replay-%d.zarr", r))
		tpath := filepath.Join(dir, fmt.Sprintf("replay-%d_tiff", r))
		if err := tr.timed("dxfile.write_ms", func() error { return dxfile.WriteDXchange(raw, acq, meta) }); err != nil {
			return err
		}
		var loaded *tomo.Acquisition
		if err := tr.timed("dxfile.read_ms", func() (err error) {
			loaded, _, err = dxfile.ReadDXchange(raw)
			return err
		}); err != nil {
			return err
		}
		var li *tomo.ProjectionSet
		tr.timed("tomo.normalize_ms", func() error {
			li = tomo.MinusLog(tomo.Normalize(loaded.Raw, loaded.Flat, loaded.Dark))
			return nil
		})
		var volume *vol.Volume
		if err := tr.timed("tomo.recon_volume_ms", func() (err error) {
			volume, err = tomo.ReconstructVolume(context.Background(), li, fileRecon)
			return err
		}); err != nil {
			return err
		}
		if err := tr.timed("zarr.write_ms", func() error { _, err := zarr.Write(zpath, volume, 32, 0); return err }); err != nil {
			return err
		}
		if err := tr.timed("tiff.write_ms", func() error { return tiff.WriteStack(tpath, volume, tiff.F32) }); err != nil {
			return err
		}
		st, err := zarr.Open(zpath)
		if err != nil {
			return err
		}
		for z := 0; z < volume.D; z++ {
			if err := tr.timed("zarr.slice_read_us", func() error { _, err := st.Slice(0, z); return err }); err != nil {
				return err
			}
		}
	}
	return nil
}
