package sim

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// step is one entry of a process log: who did its n-th step, and when.
type step struct {
	at   time.Duration
	proc string
	n    int
}

// op is one planned action of a mixedWorld process.
type op struct {
	kind  int // opSleep, opWait, opUse or opSpawn
	d     time.Duration
	idx   int  // signal or resource index
	join  bool // opSpawn: wait for the child to finish
	child []op // opSpawn: the child's plan
}

const (
	opSleep = iota
	opWait
	opUse
	opSpawn
)

var mixDurations = []time.Duration{0, time.Nanosecond, 250 * time.Millisecond, time.Second, 3 * time.Second}

// plan draws a seeded action list; processes two spawns deep spawn no more.
func plan(rng *rand.Rand, depth int) []op {
	ops := make([]op, 3+rng.Intn(6))
	for i := range ops {
		o := op{kind: rng.Intn(4), d: mixDurations[rng.Intn(len(mixDurations))], idx: rng.Intn(4)}
		if o.kind == opSpawn {
			if depth >= 2 {
				o.kind = opSleep
			} else {
				o.join = rng.Intn(2) == 0
				o.child = plan(rng, depth+1)
			}
		}
		ops[i] = o
	}
	return ops
}

// mixedWorld starts a seeded population on e: processes that sleep,
// wait on signals, hold a resource across a sleep, and spawn
// (and sometimes join) children from inside the simulation, plus a firer
// that fires every signal, so the world always drains. Every completed
// step is appended to log. All randomness is drawn before the run.
func mixedWorld(e *Engine, seed int64, log *[]step) {
	rng := rand.New(rand.NewSource(seed))
	signals := make([]*Signal, 4)
	for i := range signals {
		signals[i] = NewSignal(e)
	}
	resources := []*Resource{NewResource(e, 1), NewResource(e, 2), NewResource(e, 1), NewResource(e, 3)}
	var run func(p *Proc, ops []op)
	run = func(p *Proc, ops []op) {
		for n, o := range ops {
			switch o.kind {
			case opSleep:
				p.Sleep(o.d)
			case opWait:
				signals[o.idx].Wait(p)
			case opUse:
				resources[o.idx].Use(p, func() { p.Sleep(o.d) })
			case opSpawn:
				child := o.child
				done := p.Engine().Go(p.Name+"."+strconv.Itoa(n), func(c *Proc) { run(c, child) })
				if o.join {
					done.Wait(p)
				}
			}
			*log = append(*log, step{p.Now().Sub(epoch), p.Name, n})
		}
	}
	for i := 0; i < 3+rng.Intn(5); i++ {
		ops := plan(rng, 0)
		e.Go("p"+strconv.Itoa(i), func(p *Proc) { run(p, ops) })
	}
	fires := make([]time.Duration, len(signals))
	for i := range fires {
		fires[i] = mixDurations[rng.Intn(len(mixDurations))]
	}
	e.Go("firer", func(p *Proc) {
		for i, d := range fires {
			p.Sleep(d)
			signals[i].Fire()
			*log = append(*log, step{p.Now().Sub(epoch), p.Name, i})
		}
	})
}

// TestSteppedRunMatchesRun: the same seeded world logs the identical
// (time, process, step) sequence, ends at the same instant and delivers
// the same events whether one Run drives it or many RunUntil calls with
// random deadlines, some landing exactly on event times.
func TestSteppedRunMatchesRun(t *testing.T) {
	steps := []time.Duration{0, time.Nanosecond, 250 * time.Millisecond, time.Second, 2500 * time.Millisecond}
	for seed := int64(1); seed <= 40; seed++ {
		var whole, stepped []step
		e1 := New(epoch)
		mixedWorld(e1, seed, &whole)
		end1 := e1.Run()

		e2 := New(epoch)
		mixedWorld(e2, seed, &stepped)
		rng := rand.New(rand.NewSource(-seed))
		deadline, calls := epoch, 0
		for len(e2.events) > 0 {
			deadline = deadline.Add(steps[rng.Intn(len(steps))])
			e2.RunUntil(deadline)
			calls++
		}
		end2 := e2.Run()

		if len(whole) == 0 || calls < 2 {
			t.Fatalf("seed %d: degenerate world (%d steps, %d RunUntil calls)", seed, len(whole), calls)
		}
		if fmt.Sprint(whole) != fmt.Sprint(stepped) {
			t.Fatalf("seed %d: logs differ\nRun:      %v\nRunUntil: %v", seed, whole, stepped)
		}
		if !end1.Equal(end2) {
			t.Fatalf("seed %d: Run ended at %v, stepped at %v", seed, end1, end2)
		}
		if s1, s2 := e1.Stats(), e2.Stats(); s1.Events != s2.Events {
			t.Fatalf("seed %d: Run delivered %d events, stepped %d", seed, s1.Events, s2.Events)
		}
	}
}

// TestRunUntilDeadlineBoundary: an event exactly at the deadline is
// delivered and one a nanosecond later is not, both when a process wakes
// itself inline and when its wakeup is handed over by another process.
func TestRunUntilDeadlineBoundary(t *testing.T) {
	t.Run("self-wake", func(t *testing.T) {
		e := New(epoch)
		ticks := 0
		e.Go("tick", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(time.Second)
				ticks++
			}
		})
		e.RunUntil(epoch.Add(3 * time.Second))
		// Start, then three inline self-wakes; the 4 s wakeup stays queued.
		if got, want := e.Stats(), (Stats{Events: 4, Handoffs: 2}); ticks != 3 || got != want {
			t.Fatalf("after RunUntil(3s): ticks %d, %+v; want 3, %+v", ticks, got, want)
		}
		e.RunUntil(epoch.Add(4*time.Second - time.Nanosecond))
		if got, want := e.Stats(), (Stats{Events: 4, Handoffs: 2}); ticks != 3 || got != want {
			t.Fatalf("after RunUntil(4s-1ns): ticks %d, %+v; want 3, %+v", ticks, got, want)
		}
		if !e.Now().Equal(epoch.Add(4*time.Second - time.Nanosecond)) {
			t.Fatalf("clock %v, want the deadline", e.Now())
		}
		e.RunUntil(epoch.Add(4 * time.Second))
		if ticks != 4 {
			t.Fatalf("after RunUntil(4s): ticks %d, want 4", ticks)
		}
		e.Run()
		if ticks != 5 {
			t.Fatalf("after Run: ticks %d, want 5", ticks)
		}
	})
	t.Run("handed over", func(t *testing.T) {
		e := New(epoch)
		var woke []string
		sleeper := func(d time.Duration) func(p *Proc) {
			return func(p *Proc) {
				p.Sleep(d)
				woke = append(woke, p.Name)
			}
		}
		e.Go("at", sleeper(2*time.Second))
		e.Go("after", sleeper(2*time.Second+time.Nanosecond))
		// "first" exits at 1 s and hands control to "at".
		e.Go("first", sleeper(time.Second))
		deadline := epoch.Add(2 * time.Second)
		e.RunUntil(deadline)
		if fmt.Sprint(woke) != "[first at]" {
			t.Fatalf("woke %v by the deadline, want [first at]", woke)
		}
		if !e.Now().Equal(deadline) {
			t.Fatalf("clock %v, want the deadline", e.Now())
		}
		e.RunUntil(deadline.Add(time.Nanosecond))
		if fmt.Sprint(woke) != "[first at after]" {
			t.Fatalf("woke %v, want [first at after]", woke)
		}
	})
}

// TestDeadlockPanics: live processes blocked with nothing scheduled make
// Run panic in the caller's goroutine, and leave the engine consistent:
// firing the signal they wait on lets the same processes finish.
func TestDeadlockPanics(t *testing.T) {
	e := New(epoch)
	s := NewSignal(e)
	r := NewResource(e, 1)
	e.Go("waiter", func(p *Proc) { s.Wait(p) })
	e.Go("holder", func(p *Proc) {
		r.Acquire(p)
		s.Wait(p)
		r.Release()
	})
	e.Go("queued", func(p *Proc) {
		p.Sleep(time.Second)
		r.Use(p, func() {})
	})
	got := func() (msg any) {
		defer func() { msg = recover() }()
		e.Run()
		return nil
	}()
	if want := "sim: deadlock: 3 live processes with empty event queue"; got != want {
		t.Fatalf("Run panicked with %v, want %q", got, want)
	}
	s.Fire()
	if end := e.Run(); !end.Equal(epoch.Add(time.Second)) {
		t.Fatalf("recovered run ended at %v, want +1s", end)
	}
	if r.InUse() != 0 || r.Queued() != 0 {
		t.Fatal("resource not drained after recovery")
	}
}

// TestLoneSleeperHandoffs: a process whose own wakeup is always next
// runs on inline; only its start and its exit cross goroutines.
func TestLoneSleeperHandoffs(t *testing.T) {
	e := New(epoch)
	e.Go("p", func(p *Proc) {
		for k := 0; k < 10000; k++ {
			p.Sleep(time.Second)
		}
	})
	e.Run()
	if got, want := e.Stats(), (Stats{Events: 10001, Handoffs: 2}); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

// TestRunLeavesNoGoroutines: once Run returns, every process goroutine
// of a drained world has exited.
func TestRunLeavesNoGoroutines(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		var log []step
		e := New(epoch)
		mixedWorld(e, seed, &log)
		e.Run()
	}
	if leaked := leakcheck.Check(); leaked != "" {
		t.Fatalf("goroutines left after Run:\n%s", leaked)
	}
}
