package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// corpusSpec is one scenario spec of the corpus with its recorded golden.
type corpusSpec struct {
	name   string
	spec   []byte
	golden []byte
}

type campaign struct {
	dir   string
	specs []corpusSpec
	rng   *rand.Rand
	// inOrder runs every pass in corpus order instead of a seeded
	// shuffle; the memory probes use it.
	inOrder bool
}

func newCampaign(dir string) *campaign { return &campaign{dir: dir} }

// setup reads the corpus (every *.yaml spec and its golden) and replays
// one pass to warm the program's caches.
func (c *campaign) setup(seed int64) error {
	paths, err := filepath.Glob(filepath.Join(c.dir, "*.yaml"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no scenario specs in %s", c.dir)
	}
	for _, p := range paths {
		spec, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		golden, err := os.ReadFile(scenario.GoldenPath(p))
		if err != nil {
			return err
		}
		c.specs = append(c.specs, corpusSpec{name: filepath.Base(p), spec: spec, golden: golden})
	}
	c.rng = rand.New(rand.NewSource(seed))
	ph := &phase{}
	c.runPass(ph, nil)
	if ph.failed > 0 {
		return fmt.Errorf("warm-up pass: %v", ph.wrong)
	}
	return nil
}

func (c *campaign) close() {}

// measure replays whole corpus passes back to back until the deadline.
// On a traced phase it also profiles the CPU, to split the time spent
// inside Engine.Run between the sim layers.
func (c *campaign) measure(until time.Time, tr *tracer) (*phase, error) {
	var prof bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	ph := &phase{}
	for time.Now().Before(until) {
		c.runPass(ph, tr)
	}
	if tr != nil {
		pprof.StopCPUProfile()
		shares, perr := cpuSelfShares(prof.Bytes())
		if perr != nil {
			return nil, perr
		}
		for layer, pct := range shares {
			tr.set("cpu.self_pct."+layer, pct)
		}
	}
	return ph, nil
}

// runPass builds and runs every spec once, in an order the workload seed
// shuffles; the specs themselves run at their recorded seeds. quick is
// the time to build and run one scenario, full the whole pass.
func (c *campaign) runPass(ph *phase, tr *tracer) {
	order := c.rng.Perm(len(c.specs))
	if c.inOrder {
		for i := range order {
			order[i] = i
		}
	}
	var build, runTime, simTime time.Duration
	var counts passCounts
	for _, i := range order {
		cs := c.specs[i]
		ph.attempted++
		var m0, m1, m2 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		r, err := buildRunner(cs.spec)
		t1 := time.Now()
		if tr != nil {
			runtime.ReadMemStats(&m1)
		}
		if err != nil {
			ph.fail(true, "%s: build: %v", cs.name, err)
			continue
		}
		t2 := time.Now()
		out, err := r.Run()
		t3 := time.Now()
		build += t1.Sub(t0)
		runTime += t3.Sub(t2)
		ph.quick = append(ph.quick, float64(t3.Sub(t0).Nanoseconds())/1e6)
		if tr != nil {
			runtime.ReadMemStats(&m2)
			counts.allocBuild += m1.TotalAlloc - m0.TotalAlloc
			counts.mallocsBuild += m1.Mallocs - m0.Mallocs
			counts.allocRun += m2.TotalAlloc - m1.TotalAlloc
			counts.mallocsRun += m2.Mallocs - m1.Mallocs
		}
		if err != nil {
			ph.fail(true, "%s: run: %v", cs.name, err)
			continue
		}
		got := out.Canonical()
		if !bytes.Equal(got, cs.golden) {
			ph.fail(true, "%s: outcome differs from its golden:\n%s", cs.name, scenario.Diff(cs.golden, got))
			continue
		}
		ph.scans += out.Scans
		if d, err := time.ParseDuration(out.Makespan); err == nil {
			simTime += d
		}
		counts.add(r.Campaign, out)
	}
	ph.full = append(ph.full, float64((build+runTime).Nanoseconds())/1e6)
	if tr != nil {
		tr.sample("scenario.build_ms", float64(build.Nanoseconds())/1e6)
		tr.sample("scenario.run_ms", float64(runTime.Nanoseconds())/1e6)
		tr.sample("scenario.sim_s_per_wall_s", simTime.Seconds()/runTime.Seconds())
		counts.record(tr)
	}
}

// rssProbes is how many child processes campaignPeakRSS starts.
const rssProbes = 7

// campaignPeakRSS is the campaign's peak_rss_mb: the median peak resident
// set of rssProbes fresh processes that each load the corpus and replay
// one pass in corpus order (see rssProbe). A long campaign run sets its
// peak in its first pass and keeps it; which value it keeps (≈33 to
// ≈50 MB on the same code) follows the spec order and when the Go
// runtime's background scavenger happened to return freed pages, so one
// run's ru_maxrss is a single draw from a wide distribution. The median
// of several one-pass processes is a steady figure for the same memory.
func campaignPeakRSS() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var rss []float64
	for i := 0; i < rssProbes; i++ {
		cmd := exec.Command(self, "--workload", "campaign", "--rss-probe")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("memory probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("memory probe printed %q", out)
		}
		rss = append(rss, v)
	}
	fmt.Fprintf(os.Stderr, "perfbench: campaign memory probes (MB): %.1f\n", rss)
	return median(rss), nil
}

// rssProbe loads the corpus, replays one pass in corpus order, checks it
// and returns the process's peak resident set in MB. It reads VmHWM, the
// high-water mark of this process's own address space, not ru_maxrss:
// os/exec starts a child on the parent's address space until exec, and
// Linux carries that address space's high-water mark into the child's
// ru_maxrss, so every probe would report the parent's peak.
func rssProbe() (float64, error) {
	c := newCampaign(corpusDir)
	c.inOrder = true
	if err := c.setup(0); err != nil {
		return 0, err
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func buildRunner(spec []byte) (*scenario.Runner, error) {
	s, err := scenario.Decode(spec)
	if err != nil {
		return nil, err
	}
	return scenario.NewRunner(s)
}

// passCounts sums one pass's layer counters over its specs.
type passCounts struct {
	allocBuild, mallocsBuild, allocRun, mallocsRun uint64

	events, evicted, runs, dispatched, deferred, shed int
	bytesMoved                                        int64
	busy                                              time.Duration
}

func (pc *passCounts) add(c *core.Campaign, out *scenario.Outcome) {
	pc.events += out.Journal.Events
	pc.evicted += int(out.Journal.Evicted)
	pc.runs += out.CompletedRuns
	pc.deferred += out.Deferred
	pc.shed += out.Shed
	for _, t := range out.Tenants {
		pc.dispatched += t.Dispatched
	}
	for _, site := range []string{core.SiteNERSC, core.SiteALCF} {
		for _, ends := range [][2]string{{core.SiteALS, site}, {site, core.SiteALS}} {
			if l, err := c.Base.Network.Link(ends[0], ends[1]); err == nil {
				pc.bytesMoved += l.TotalBytes
				pc.busy += l.BusyTime
			}
		}
	}
}

func (pc *passCounts) record(tr *tracer) {
	tr.sample("go.alloc_mb_build", float64(pc.allocBuild)/1e6)
	tr.sample("go.mallocs_build", float64(pc.mallocsBuild))
	tr.sample("go.alloc_mb_run", float64(pc.allocRun)/1e6)
	tr.sample("go.mallocs_run", float64(pc.mallocsRun))
	tr.sample("obslog.events", float64(pc.events))
	tr.sample("obslog.evicted", float64(pc.evicted))
	tr.sample("flow.runs", float64(pc.runs))
	tr.sample("sched.dispatched", float64(pc.dispatched))
	tr.sample("sched.deferred", float64(pc.deferred))
	tr.sample("sched.shed", float64(pc.shed))
	tr.sample("simnet.bytes_moved", float64(pc.bytesMoved))
	tr.sample("simnet.busy_s", pc.busy.Seconds())
}

// replay has nothing to add for the campaign: the sim layers all run
// inside Engine.Run and are split by the CPU profile instead.
func (c *campaign) replay(*tracer) error { return nil }
