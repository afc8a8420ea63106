// Package sim is a deterministic discrete-event simulation kernel in the
// style of SimPy: simulated processes are goroutines that advance a shared
// virtual clock cooperatively, so an eight-hour beamline shift of scans,
// transfers, queue waits, and reconstructions executes in milliseconds and
// reproduces exactly run to run. The facility-scale experiments (Table 2,
// the data-lifecycle figure, the prune-incident study) all run on this
// kernel; only one process executes at a time, so process bodies need no
// locking.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// event is a scheduled wakeup in the virtual timeline: at time at, the
// engine wakes the process blocked on wake (its Proc's channel).
type event struct {
	at   time.Time
	seq  int64 // tie-break: FIFO among same-time events
	wake chan struct{}
}

// before orders events by time, then by scheduling order.
func (ev *event) before(o *event) bool {
	if c := ev.at.Compare(o.at); c != 0 {
		return c < 0
	}
	return ev.seq < o.seq
}

// eventHeap is a binary min-heap of events, stored by value so that
// scheduling a wakeup allocates nothing once the backing array is large
// enough.
type eventHeap []event

// push adds ev to the heap.
//
//perf:hot
func (h *eventHeap) push(ev event) {
	if len(*h) == cap(*h) {
		h.grow()
	}
	q := (*h)[:len(*h)+1]
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the earliest event; the heap must be non-empty.
//
//perf:hot
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the channel reference
	q = q[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	return top
}

// grow doubles the heap's backing array, off push's allocation-free path.
func (h *eventHeap) grow() {
	q := make(eventHeap, len(*h), max(2*cap(*h), 16))
	copy(q, *h)
	*h = q
}

// Engine owns the virtual clock and the event queue. Create with New, add
// processes with Go, then call Run.
type Engine struct {
	nowMu    sync.Mutex // guards now against readers outside the sim thread
	now      time.Time  // guarded by nowMu
	events   eventHeap
	seq      int64
	yield    chan struct{} // control returns to RunUntil here once no event is due
	deadline time.Time     // the current RunUntil's deadline (zero: none)
	live     int           // processes started and not yet finished
	stats    Stats
}

// Stats counts the kernel's work over an engine's lifetime.
type Stats struct {
	// Events is the number of wakeups delivered.
	Events int64
	// Handoffs is the number of times control crossed goroutines: a
	// wakeup delivered to another process, or control returned to
	// RunUntil. A process woken by its own event runs on inline.
	Handoffs int64
}

// Stats returns the engine's counters. Like the rest of the engine it is
// not safe to call while RunUntil is running.
func (e *Engine) Stats() Stats { return e.stats }

// New creates an engine whose clock starts at epoch.
func New(epoch time.Time) *Engine {
	return &Engine{now: epoch, yield: make(chan struct{})}
}

// Now returns the current virtual time. Unlike the rest of the engine it
// is safe to call from goroutines outside the cooperative schedule, so
// observability surfaces (SLO reports, journal snapshots) can be polled
// while the simulation runs.
func (e *Engine) Now() time.Time {
	e.nowMu.Lock()
	defer e.nowMu.Unlock()
	return e.now
}

// setNow advances the clock under the lock that external Now readers take.
func (e *Engine) setNow(t time.Time) {
	e.nowMu.Lock()
	e.now = t
	e.nowMu.Unlock()
}

// schedule pushes a wakeup of the process blocked on wake at time at
// (clamped to now).
//
//perf:hot
func (e *Engine) schedule(at time.Time, wake chan struct{}) {
	if now := e.Now(); at.Before(now) {
		at = now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, wake: wake})
}

// Proc is the handle a simulated process uses to interact with virtual
// time. It is only valid inside the goroutine it was created for.
type Proc struct {
	e    *Engine
	Name string
	done *Signal
	// wake is the process's one wakeup channel: a process blocks on at
	// most one event at a time, so every event it waits on carries it.
	wake chan struct{}
}

// Go starts a new simulated process. fn runs in its own goroutine but is
// cooperatively scheduled: it must block only through Proc methods (or
// Resource/Signal, which use them). The returned Signal fires when fn
// returns.
func (e *Engine) Go(name string, fn func(p *Proc)) *Signal {
	p := &Proc{e: e, Name: name, done: NewSignal(e), wake: make(chan struct{})}
	e.live++
	e.schedule(e.Now(), p.wake)
	go func() {
		<-p.wake
		defer func() {
			e.live--
			p.done.Fire()
			e.handoff(nil)
		}()
		fn(p)
	}()
	return p.done
}

// Run executes events until the queue is empty, returning the final
// virtual time. It panics on deadlock (live processes but no events).
func (e *Engine) Run() time.Time {
	return e.RunUntil(time.Time{})
}

// RunUntil executes events until the queue is empty or the next event is
// after deadline (a zero deadline means run to completion). The clock is
// left at the last executed event (or the deadline, if later).
//
// RunUntil delivers only the first event itself: from then on each
// process that blocks hands control straight to the next event's process
// (see handoff), and control comes back here once no event is due.
func (e *Engine) RunUntil(deadline time.Time) time.Time {
	e.deadline = deadline
	if w := e.next(); w != nil {
		e.stats.Handoffs++
		w <- struct{}{}
		<-e.yield
	}
	if len(e.events) > 0 {
		e.setNow(deadline)
		return e.Now()
	}
	if e.live > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d live processes with empty event queue", e.live))
	}
	return e.Now()
}

// next pops the earliest event if one is due by the current deadline,
// advances the clock to it and returns the wake channel of the process it
// wakes; it returns nil when the queue is empty or the next event lies
// past the deadline.
//
//perf:hot
func (e *Engine) next() chan struct{} {
	if len(e.events) == 0 {
		return nil
	}
	if !e.deadline.IsZero() && e.events[0].at.After(e.deadline) {
		return nil
	}
	ev := e.events.pop()
	e.stats.Events++
	e.setNow(ev.at)
	return ev.wake
}

// handoff passes control from the running process, which is blocking on
// own (nil when it is exiting), to whoever runs next: the next event's
// process, or RunUntil when no event is due. A process whose own wakeup
// is next just keeps running, with no goroutine switch.
//
//perf:hot
func (e *Engine) handoff(own chan struct{}) {
	w := e.next()
	if w == nil {
		w = e.yield
	} else if w == own {
		return
	}
	e.stats.Handoffs++
	w <- struct{}{}
	if own != nil {
		<-own
	}
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Time { return p.e.Now() }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Sleep suspends the process for d of virtual time (non-positive d yields
// the scheduler without advancing the clock).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.e.schedule(p.e.Now().Add(d), p.wake)
	p.e.handoff(p.wake)
}

// Signal is a one-shot level-triggered event: Wait blocks until Fire has
// been called; waits after Fire return immediately.
type Signal struct {
	e       *Engine
	fired   bool
	waiters []chan struct{} // wake channels of the blocked processes
}

// NewSignal creates a signal bound to the engine.
func NewSignal(e *Engine) *Signal {
	return &Signal{e: e}
}

// Fire triggers the signal, waking all current waiters at the current
// virtual time. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	now := s.e.Now()
	for _, w := range s.waiters {
		// Each waiter wakes as a fresh event at the fire time.
		s.e.seq++
		s.e.events.push(event{at: now, seq: s.e.seq, wake: w})
	}
	s.waiters = nil
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Wait blocks the calling process until the signal fires.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.e.seq++ // numbered like every other scheduling step
	s.waiters = append(s.waiters, p.wake)
	p.e.handoff(p.wake)
}

// WaitAll blocks until every signal has fired.
func WaitAll(p *Proc, signals ...*Signal) {
	for _, s := range signals {
		s.Wait(p)
	}
}

// Resource is a counting semaphore over virtual time: up to Capacity
// holders at once, FIFO queuing — the primitive behind worker concurrency
// limits, cluster nodes, and network links.
type Resource struct {
	e        *Engine
	capacity int
	inUse    int
	queue    []chan struct{} // wake channels of the waiters, FIFO
	// PeakQueue tracks the maximum number of simultaneous waiters, a
	// congestion metric the prune-incident experiment reports.
	PeakQueue int
}

// NewResource creates a resource with the given capacity (min 1).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{e: e, capacity: capacity}
}

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of current holders.
func (r *Resource) InUse() int { return r.inUse }

// Queued returns the number of processes waiting.
func (r *Resource) Queued() int { return len(r.queue) }

// Acquire blocks the process until a slot is free, then takes it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	r.e.seq++ // numbered like every other scheduling step
	r.queue = append(r.queue, p.wake)
	if len(r.queue) > r.PeakQueue {
		r.PeakQueue = len(r.queue)
	}
	p.e.handoff(p.wake)
	// The releaser transferred its slot to us: inUse stays constant.
}

// Release frees a slot, waking the longest-waiting process, if any.
func (r *Resource) Release() {
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.e.seq++
		r.e.events.push(event{at: r.e.Now(), seq: r.e.seq, wake: next})
		return // slot handed directly to the waiter
	}
	r.inUse--
	if r.inUse < 0 {
		panic("sim: Release without Acquire")
	}
}

// Use runs fn while holding the resource.
func (r *Resource) Use(p *Proc, fn func()) {
	r.Acquire(p)
	defer r.Release()
	fn()
}

// WallClock adapts the operating-system clock to the Clock interfaces the
// instrumented layers take (obslog.Clock, slo.Clock, flow's env clock).
// It is the one sanctioned bridge from simulation-style clock injection to
// real time: both server binaries resolve their clock through it, so a
// binary is either fully on the wall clock or fully on the sim kernel,
// never a mix.
type WallClock struct{}

// Now returns the current wall-clock time.
func (WallClock) Now() time.Time { return time.Now() }
