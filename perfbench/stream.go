package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/msgq"
	"repro/internal/phantom"
	"repro/internal/pva"
	"repro/internal/tomo"
	"repro/internal/trace"
	"repro/internal/vol"
)

// The stream workload's geometry and open-loop schedule. One scan is a
// flat, a dark, streamAngles projections, on every other scan a second
// flat after the last projection, and the end-of-scan marker, one frame
// per frameEvery; scans start every scanPeriod. The geometry is
// cmd/beamline's default (64 columns, 16 rows, 96 angles). A scan's 99 or
// 100 frames take ~50 ms; the ~25 ms left idle per period keeps the
// offered load well below what the service handles on two cores, so
// latency measures the path and not a growing backlog.
const (
	streamRows   = 16
	streamCols   = 64
	streamAngles = 96
	streamPool   = 3 // distinct samples, cycled
	frameEvery   = 500 * time.Microsecond
	scanPeriod   = 75 * time.Millisecond
	// previewDeadline is how late after its end-of-scan frame was due a
	// preview may be decoded before it counts as failed: one scan period,
	// so a preview that lands after the next scan's marker is a miss.
	previewDeadline = scanPeriod
	streamChannel   = "bl832:det"
	streamHWM       = 8192
)

// streamRecon is how cmd/beamline configures the streaming service.
var streamRecon = tomo.ReconOptions{Algorithm: tomo.AlgFBP, Filter: tomo.SheppLoganFilter}

// streamScan is one pre-generated acquisition, published as many scans.
type streamScan struct {
	flat, flat2, dark *pva.Frame
	projs             []*pva.Frame
	// ref holds the reference previews at float32 wire precision:
	// [0] from the one flat (incremental scans), [1] from the average
	// of both flats (fallback scans).
	ref [2][3]*vol.Image
	li  *tomo.ProjectionSet // line integrals from the one flat, for replays
}

type stream struct {
	pool []*streamScan

	ioc, mirrorSrv *pva.Server
	mirrorDone     chan error
	sink           *msgq.Pull
	svcDone        chan error
	cancel         context.CancelFunc
	tracedWiring   bool

	next int // index of the next scan, unique across phases

	// tamper, when set, rewrites every preview message before it is
	// decoded; the negative controls use it to corrupt previews.
	tamper func([]byte) []byte
}

func newStream() *stream { return &stream{} }

func (s *stream) setup(seed int64) error {
	theta := tomo.UniformAngles(streamAngles)
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < streamPool; p++ {
		truth := sampleVolume(p, seed, streamCols, streamRows)
		acq := tomo.Acquire(truth, theta, streamCols, tomo.AcquireOptions{
			I0: 5e4, GainVariation: 0.02, Seed: seed*131 + int64(p)})
		sc, err := newStreamScan(acq, rng)
		if err != nil {
			return err
		}
		s.pool = append(s.pool, sc)
	}
	if err := s.wire(nil); err != nil {
		return err
	}
	// Warm-up: one scan down each path, checked, then discarded.
	ph, err := s.measure(time.Now().Add(2*scanPeriod+20*time.Millisecond), nil)
	if err != nil {
		return err
	}
	if len(ph.wrong) > 0 || ph.scans+ph.late == 0 {
		return fmt.Errorf("warm-up scans: %d previews, wrong: %v", ph.scans+ph.late, ph.wrong)
	}
	return nil
}

// sampleVolume is the p-th sample of a pool: Shepp-Logan, a seeded
// feather, a seeded proppant pack, cycled.
func sampleVolume(p int, seed int64, n, d int) *vol.Volume {
	switch p % 3 {
	case 1:
		fp := phantom.DefaultFeather(phantom.FeatherSpecies(seed & 1))
		fp.Seed = seed + int64(p)
		return phantom.Feather(fp, n, d)
	case 2:
		pp := phantom.DefaultProppant()
		pp.Seed = seed + int64(p)
		return phantom.Proppant(pp, n, d)
	}
	return phantom.SheppLogan3D(n, d)
}

// newStreamScan turns an acquisition into detector frames, a second flat
// with fresh photon noise, and the reference previews both paths must
// reproduce: the batch QuickPreview of the same uint16 frames.
func newStreamScan(acq *tomo.Acquisition, rng *rand.Rand) (*streamScan, error) {
	raw := acq.Raw
	n := raw.NRows * raw.NCols
	sc := &streamScan{
		flat: &pva.Frame{Kind: pva.KindFlat, Data: toU16(acq.Flat)},
		dark: &pva.Frame{Kind: pva.KindDark, Data: toU16(acq.Dark)},
	}
	noisy := make([]float64, n)
	for i, v := range acq.Flat {
		noisy[i] = v + math.Sqrt(math.Max(v, 1))*rng.NormFloat64()
	}
	sc.flat2 = &pva.Frame{Kind: pva.KindFlat, Data: toU16(noisy)}
	ps := tomo.NewProjectionSet(raw.Theta, raw.NRows, raw.NCols)
	for a := 0; a < raw.NAngles; a++ {
		f := &pva.Frame{Kind: pva.KindProjection, AngleRad: raw.Theta[a], Data: toU16(raw.Data[a*n : (a+1)*n])}
		sc.projs = append(sc.projs, f)
		dst := ps.Projection(a)
		for i, v := range f.Data {
			dst[i] = float64(v)
		}
	}
	dark := u16Float(sc.dark.Data)
	one := u16Float(sc.flat.Data)
	two := u16Float(sc.flat.Data)
	for i, v := range sc.flat2.Data {
		two[i] = (two[i] + float64(v)) / 2
	}
	for mode, flat := range [][]float64{one, two} {
		li := tomo.MinusLog(tomo.Normalize(ps, flat, dark))
		if mode == 0 {
			sc.li = li
		}
		xy, xz, yz, err := tomo.QuickPreview(context.Background(), li, streamRecon)
		if err != nil {
			return nil, err
		}
		for i, im := range []*vol.Image{xy, xz, yz} {
			for j, v := range im.Pix {
				im.Pix[j] = float64(float32(v))
			}
			sc.ref[mode][i] = im
		}
	}
	return sc, nil
}

// toU16 clamps detector counts to the uint16 range, as the IOC does.
func toU16(xs []float64) []uint16 {
	out := make([]uint16, len(xs))
	for i, v := range xs {
		out[i] = uint16(math.Min(math.Max(v, 0), 65535))
	}
	return out
}

func u16Float(xs []uint16) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

// wire brings the streaming branch up as cmd/beamline wires it: IOC
// server → mirror → mirror server → incremental StreamingService →
// msgq push → our pull socket. On a traced phase the service runs under
// a trace root, so its own cache/finalize/recon/preview_send spans land
// in the tracer.
func (s *stream) wire(tr *tracer) error {
	var err error
	if s.ioc, err = pva.NewServer("127.0.0.1:0", streamHWM); err != nil {
		return err
	}
	if s.mirrorSrv, err = pva.NewServer("127.0.0.1:0", streamHWM); err != nil {
		return err
	}
	mirror, err := pva.NewMirror(s.ioc.Addr(), streamChannel, s.mirrorSrv)
	if err != nil {
		return err
	}
	s.mirrorDone = make(chan error, 1)
	go func() { s.mirrorDone <- mirror.Run() }()
	if s.sink, err = msgq.NewPull("127.0.0.1:0"); err != nil {
		return err
	}
	svc := &core.StreamingService{
		PVAAddr: s.mirrorSrv.Addr(), Channel: streamChannel, PreviewAddr: s.sink.Addr(),
		Recon: streamRecon, Incremental: true,
	}
	ctx, cancel := context.WithCancel(trace.NewContext(context.Background(), tr.root("streaming service")))
	s.cancel = cancel
	s.svcDone = make(chan error, 1)
	go func() { s.svcDone <- svc.Run(ctx) }()
	s.tracedWiring = tr != nil
	if err := waitMonitors(s.mirrorSrv, 1); err != nil {
		return err
	}
	return waitMonitors(s.ioc, 1)
}

func waitMonitors(srv *pva.Server, n int) error {
	deadline := time.Now().Add(5 * time.Second)
	for srv.Monitors(streamChannel) < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("pva: %d of %d monitors connected after 5s", srv.Monitors(streamChannel), n)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// unwire tears the branch down source first, so each stage sees its
// input close and returns, and waits for every goroutine it started.
func (s *stream) unwire() {
	if s.ioc == nil {
		return
	}
	s.ioc.Close()
	if s.mirrorDone != nil {
		<-s.mirrorDone
	}
	if s.mirrorSrv != nil {
		s.mirrorSrv.Close()
	}
	if s.svcDone != nil {
		<-s.svcDone
	}
	if s.cancel != nil {
		s.cancel()
	}
	if s.sink != nil {
		s.sink.Close()
	}
	*s = stream{pool: s.pool, next: s.next, tamper: s.tamper}
}

func (s *stream) close() { s.unwire() }

// eosOffset is when, after its scan starts, a scan's end-of-scan frame is
// due: after the flat, the dark, the projections and, on fallback scans,
// the late second flat.
func eosOffset(fallback bool) time.Duration {
	n := 2 + streamAngles
	if fallback {
		n++
	}
	return time.Duration(n) * frameEvery
}

func isFallback(k int) bool { return k%2 == 1 }

// measure streams scans until the deadline, in segments of
// streamSegment, tearing the stack down and wiring it anew before each
// segment after the first. A run on one wiring kept one latency level
// for its whole length, and that level differed from run to run; see
// README.md for the spreads with one wiring and with six.
func (s *stream) measure(until time.Time, tr *tracer) (*phase, error) {
	ph := &phase{}
	var dropped, missed int
	var late []float64
	for first := true; first || time.Until(until) > streamSegment/2; first = false {
		stop := time.Now().Add(streamSegment)
		if until.Sub(stop) < streamSegment/2 {
			stop = until
		}
		if !first || (tr != nil) != s.tracedWiring {
			s.unwire()
			if err := s.wire(tr); err != nil {
				return nil, err
			}
		}
		seg, err := s.segment(stop, tr)
		if err != nil {
			return nil, err
		}
		ph.add(seg.phase)
		dropped += seg.dropped
		missed = max(missed, seg.missed)
		late = append(late, seg.late...)
	}
	if tr != nil {
		tr.set("pva.frames_dropped", float64(dropped))
		tr.set("pva.frames_missed", float64(missed))
		tr.set("stream.generator_late_p99_us", quantile(late, 0.99))
	}
	return ph, nil
}

// streamSegment is how long the stream runs on one wiring.
const streamSegment = 5 * time.Second

// segmentResult is what one wiring observed: the phase, the frames its
// servers dropped, the most frames a preview reported missed, and how
// late, in µs, each frame was published.
type segmentResult struct {
	*phase
	dropped, missed int
	late            []float64
}

// segment streams scans on the current wiring until the deadline.
func (s *stream) segment(until time.Time, tr *tracer) (*segmentResult, error) {
	var relay *relayProbe
	if tr != nil {
		var err error
		if relay, err = startRelayProbe(s.mirrorSrv, tr); err != nil {
			return nil, err
		}
	}

	k0 := s.next
	start := time.Now().Add(10 * time.Millisecond)
	due := func(k int) time.Time {
		return start.Add(time.Duration(k-k0)*scanPeriod + eosOffset(isFallback(k)))
	}
	n := 0
	for !due(k0 + n).After(until) {
		n++
	}
	s.next += n

	type published struct {
		late []float64
		err  error
	}
	pub := make(chan published, 1)
	go func() {
		late, err := s.publish(k0, n, start, tr)
		pub <- published{late, err}
	}()

	ph := &phase{attempted: n}
	got := make(map[int]bool, n)
	missed := 0
	// Every scan was due by due(k0+n-1); wait two seconds past the last
	// deadline, so a preview that is merely late counts as late, not missing.
	stopAt := due(k0 + n - 1).Add(previewDeadline + 2*time.Second)
	for len(got) < n && time.Now().Before(stopAt) {
		msg, err := s.sink.Recv(time.Until(stopAt) + time.Millisecond)
		if err != nil {
			break
		}
		if s.tamper != nil {
			msg = s.tamper(msg)
		}
		root := tr.root("preview")
		sp := call(root, "core.decode_preview_us")
		h, imgs, err := core.DecodePreview(msg)
		end(sp)
		decoded := time.Now()
		root.End(decoded)
		if err != nil {
			ph.fail(true, "decode preview: %v", err)
			continue
		}
		k, ok := scanIndex(h.ScanID)
		if ok && k < k0 {
			continue // an earlier phase's preview, already counted missing
		}
		if !ok || k >= k0+n || got[k] {
			ph.fail(true, "unexpected preview for scan %q", h.ScanID)
			continue
		}
		got[k] = true
		missed = max(missed, h.Missed)
		if err := s.checkPreview(k, h, imgs); err != nil {
			ph.fail(true, "scan %s: %v", h.ScanID, err)
			continue
		}
		lat := decoded.Sub(due(k))
		if lat > previewDeadline {
			ph.fail(false, "scan %s: preview %v after end of scan", h.ScanID, lat)
			ph.late++
			continue
		}
		ms := float64(lat.Nanoseconds()) / 1e6
		if isFallback(k) {
			ph.full = append(ph.full, ms)
		} else {
			ph.quick = append(ph.quick, ms)
		}
		ph.scans++
	}
	p := <-pub
	if p.err != nil {
		return nil, p.err
	}
	ph.failed += n - len(got) // never arrived
	relay.stop()
	return &segmentResult{ph, s.ioc.Dropped() + s.mirrorSrv.Dropped(), missed, p.late}, nil
}

func scanName(k int) string { return "scan-" + strconv.Itoa(k) }

func scanIndex(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "scan-")
	k, err := strconv.Atoi(rest)
	return k, ok && err == nil
}

// publish plays the detector: n scans from k0, each frame published when
// it is due whatever the service is doing (an open loop). It returns how
// late, in µs, each frame was published.
func (s *stream) publish(k0, n int, start time.Time, tr *tracer) ([]float64, error) {
	lateness := make([]float64, 0, n*(streamAngles+4))
	for i := 0; i < n; i++ {
		k := k0 + i
		sc := s.pool[k%len(s.pool)]
		frames := append([]*pva.Frame{sc.flat, sc.dark}, sc.projs...)
		if isFallback(k) {
			frames = append(frames, sc.flat2)
		}
		frames = append(frames, &pva.Frame{Kind: pva.KindEndOfScan})
		t := start.Add(time.Duration(i) * scanPeriod)
		for j, f := range frames {
			waitUntil(t, f.Kind == pva.KindEndOfScan)
			lateness = append(lateness, float64(time.Since(t).Nanoseconds())/1e3)
			f.Seq = uint64(j + 1)
			f.ScanID = scanName(k)
			f.Rows, f.Cols = streamRows, streamCols
			f.Timestamp = time.Now().UnixNano()
			if err := tr.timed("pva.publish_us", func() error { return s.ioc.Publish(streamChannel, f) }); err != nil {
				return lateness, err
			}
			t = t.Add(frameEvery)
		}
	}
	return lateness, nil
}

// waitUntil sleeps until t. Before an end-of-scan frame, whose due time
// starts the latency clock, it sleeps only until eosSpin before t and
// then polls, so the marker leaves on time instead of one timer wake-up
// late.
func waitUntil(t time.Time, eos bool) {
	const eosSpin = 300 * time.Microsecond
	wake := t
	if eos {
		wake = t.Add(-eosSpin)
	}
	if d := time.Until(wake); d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// checkPreview compares a decoded preview with the reference QuickPreview
// of the same frames, at float32 wire precision.
func (s *stream) checkPreview(k int, h core.PreviewHeader, imgs []*vol.Image) error {
	if h.Missed != 0 {
		return fmt.Errorf("%d missed frames", h.Missed)
	}
	if h.NAngles != streamAngles {
		return fmt.Errorf("%d angles, want %d", h.NAngles, streamAngles)
	}
	mode := 0
	if isFallback(k) {
		mode = 1
	}
	ref := s.pool[k%len(s.pool)].ref[mode]
	if len(imgs) != len(ref) {
		return fmt.Errorf("%d slices, want %d", len(imgs), len(ref))
	}
	for i, want := range ref {
		if err := sameImage(imgs[i], want); err != nil {
			return fmt.Errorf("slice %d: %w", i, err)
		}
	}
	return nil
}

// sameImage requires equal dimensions and every pixel within float32
// rounding of the reference's scale.
func sameImage(got, want *vol.Image) error {
	if got.W != want.W || got.H != want.H {
		return fmt.Errorf("%dx%d, want %dx%d", got.W, got.H, want.W, want.H)
	}
	scale := 0.0
	for _, v := range want.Pix {
		scale = math.Max(scale, math.Abs(v))
	}
	tol := 1e-6 * scale
	for i, v := range got.Pix {
		if d := math.Abs(v - want.Pix[i]); !(d <= tol) {
			return fmt.Errorf("pixel %d is %g, want %g", i, v, want.Pix[i])
		}
	}
	return nil
}

// relayProbe is a second monitor on the mirror server, timing each frame
// from its IOC publish timestamp to its arrival through the mirror.
type relayProbe struct {
	mon  *pva.Monitor
	done chan struct{}
}

func startRelayProbe(srv *pva.Server, tr *tracer) (*relayProbe, error) {
	mon, err := pva.NewMonitor(srv.Addr(), streamChannel)
	if err != nil {
		return nil, err
	}
	if err := waitMonitors(srv, 2); err != nil {
		mon.Close()
		return nil, err
	}
	p := &relayProbe{mon: mon, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for {
			f, err := mon.Next(0)
			if err != nil {
				return
			}
			if f.Kind != pva.KindEndOfScan {
				tr.sample("pva.relay_p50_us", float64(time.Now().UnixNano()-f.Timestamp)/1e3)
			}
		}
	}()
	return p, nil
}

func (p *relayProbe) stop() {
	if p == nil {
		return
	}
	p.mon.Close()
	<-p.done
}

// replay times each streaming layer on its own over the first pooled
// scan: the pva frame codec, the per-frame incremental fold and its
// finalize, the batch QuickPreview, the preview codec and one msgq
// push→pull hop; and counts the bytes one scan puts on the wire.
func (s *stream) replay(tr *tracer) error {
	const reps = 5
	sc := s.pool[0]
	frames := append([]*pva.Frame{sc.flat, sc.dark}, sc.projs...)
	frames = append(frames, &pva.Frame{Kind: pva.KindEndOfScan, ScanID: scanName(0)})
	wire := 0
	for r := 0; r < reps; r++ {
		for _, f := range frames {
			f.ScanID, f.Rows, f.Cols = scanName(0), streamRows, streamCols
			var raw []byte
			tr.timed("pva.encode_us", func() error { raw = f.Encode(); return nil })
			if err := tr.timed("pva.decode_us", func() error { _, err := pva.DecodeFrame(raw); return err }); err != nil {
				return err
			}
			if r == 0 {
				wire += 2 * (4 + len(raw)) // IOC → mirror → service
			}
		}
	}

	ip, err := tomo.NewIncrementalPreview(streamRows, streamCols, streamRecon.Size, streamRecon.Filter)
	if err != nil {
		return err
	}
	for r := 0; r < reps; r++ {
		ip.Reset()
		for a := 0; a < sc.li.NAngles; a++ {
			proj := sc.li.Projection(a)
			tr.timed("tomo.fold_us", func() error { ip.AddProjection(sc.li.Theta[a], proj); return nil })
		}
		if err := tr.timed("tomo.finalize_us", func() error { _, _, _, err := ip.Finalize(); return err }); err != nil {
			return err
		}
		if err := tr.timed("tomo.quickpreview_ms", func() error {
			_, _, _, err := tomo.QuickPreview(context.Background(), sc.li, streamRecon)
			return err
		}); err != nil {
			return err
		}
	}

	ref := sc.ref[0]
	h := core.PreviewHeader{ScanID: scanName(0), NAngles: streamAngles}
	var msg []byte
	for r := 0; r < reps; r++ {
		if err := tr.timed("core.encode_preview_us", func() error {
			msg, err = core.EncodePreview(h, ref[0], ref[1], ref[2])
			return err
		}); err != nil {
			return err
		}
	}
	tr.set("stream.wire_bytes_per_scan", float64(wire+4+len(msg)))

	pull, err := msgq.NewPull("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer pull.Close()
	push := msgq.NewPush(pull.Addr())
	defer push.Close()
	for r := 0; r < 20*reps; r++ {
		if err := tr.timed("msgq.send_recv_us", func() error {
			if err := push.Send(context.Background(), msg); err != nil {
				return err
			}
			_, err := pull.Recv(5 * time.Second)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}
