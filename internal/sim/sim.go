// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and a set of actors (Tasks). Each actor is
// a goroutine, but exactly one actor runs at any moment: an actor runs until
// it parks in an engine primitive (Sleep, Wait, ...). The engine loop then
// runs on whichever actor goroutine parked: it advances the clock to the
// next event and hands the wake cause straight to that event's actor, or
// simply returns when the event belongs to the parking actor itself. The
// goroutine that called Run only starts the first actor and waits for the
// run to end. Ties are broken by event sequence number, so a given program
// produces identical virtual timings on every run.
//
// The event queue is built for cluster-scale runs (thousands of actors,
// millions of events): a concrete binary heap ordered on (time, seq) with no
// interface boxing, a freelist that recycles event structs, and a same-instant
// run queue so Yield/Wake storms at the current instant never touch the heap.
// Engine.Stats exposes the resulting counters for benchmarks.
//
// All primitives must be called from an actor goroutine; calling them from
// outside (including from the goroutine running Engine.Run) corrupts the
// handoff protocol. An engine whose run ends with actors still parked holds
// their goroutines until Close unwinds them.
package sim

import (
	"errors"
	"fmt"
	"sort"
)

// Time is a point in virtual time, in microseconds since engine start.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Convenience duration units.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%dµs", int64(d))
	}
}

// event is a scheduled resumption of a task. Events are pooled on the
// engine's freelist: holders (Task.timeout, Task.pendingWake) may only keep
// a reference while the event is still queued — the engine recycles it the
// moment it is dispatched or discarded.
type event struct {
	t         Time
	seq       int64
	task      *Task
	canceled  bool
	fromQueue bool // resumption is a Queue wake, not a timer
}

// eventLess orders events by (time, sequence): the heap invariant and the
// run-queue FIFO both reduce to this total order.
func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Stats counts what the engine has done — the perf ledger for scale runs.
type Stats struct {
	Dispatched  int64 // events delivered to tasks
	Scheduled   int64 // events created (timers and queue wakes)
	RunQueued   int64 // same-instant events that bypassed the heap
	Canceled    int64 // events discarded after cancellation
	EventAllocs int64 // event structs newly allocated (freelist misses)
	HeapMax     int   // high-water mark of the pending-timer heap
	// Switches counts dispatches that resumed a different task from the
	// one that ran last: each is a goroutine hand-off, where the rest let
	// the parking task carry straight on.
	Switches int64
}

// Engine is a discrete-event simulator.
type Engine struct {
	now Time
	// heap holds future events, ordered by eventLess: a concrete binary
	// sift-up/sift-down heap, with both children compared on the way down,
	// no container/heap interface calls and no `any` boxing.
	heap []*event
	// runq holds events scheduled for the current instant in seq (FIFO)
	// order. Every heap event stamped with the current instant predates —
	// and therefore outranks — everything in the run queue, so dispatch
	// drains due heap events first, then the run queue.
	runq     []*event
	runqHead int
	free     []*event // event freelist
	seq      int64
	// handoff tells the goroutine blocked in RunUntil or Close that the
	// run (or the unwinding task) is over. limit and runErr are
	// RunUntil's bound and result.
	handoff chan struct{}
	limit   Time
	runErr  error
	// tasks holds every live task in spawn order; an exited task leaves a
	// nil slot (its index is Task.slot) until compaction.
	tasks   []*Task
	nlive   int
	current *Task
	last    *Task  // the task dispatched last, for Stats.Switches
	closing bool   // set by Close: every park unwinds the task
	rng     uint64 // splitmix64 state, see rand.go
	stats   Stats
}

// Current returns the task that is currently executing, or nil when called
// from outside any actor (e.g. during setup before Run). Exactly one task
// runs at a time, so layers that cannot thread a *Task through their
// interfaces (the filesystem stack) use this to find the ambient task.
func (e *Engine) Current() *Task { return e.current }

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{handoff: make(chan struct{})}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Stats returns a snapshot of the engine's event counters.
func (e *Engine) Stats() Stats { return e.stats }

// newEvent takes an event from the freelist (or allocates one) and stamps
// it with the next sequence number.
func (e *Engine) newEvent(at Time, task *Task, fromQueue bool) *event {
	e.seq++
	e.stats.Scheduled++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
		e.stats.EventAllocs++
	}
	ev.t, ev.seq, ev.task = at, e.seq, task
	ev.canceled, ev.fromQueue = false, fromQueue
	return ev
}

func (e *Engine) freeEvent(ev *event) {
	ev.task = nil
	e.free = append(e.free, ev)
}

// enqueue routes an event to the same-instant run queue or the heap.
func (e *Engine) enqueue(ev *event) {
	if ev.t == e.now {
		e.runq = append(e.runq, ev)
		e.stats.RunQueued++
		return
	}
	e.heapPush(ev)
}

func (e *Engine) heapPush(ev *event) {
	h := append(e.heap, ev)
	e.heap = h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	if len(h) > e.stats.HeapMax {
		e.stats.HeapMax = len(h)
	}
}

func (e *Engine) heapPop() *event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	e.heap = h
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventLess(h[r], h[c]) {
			c = r
		}
		if !eventLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

func (e *Engine) schedule(t *Task, at Time) *event {
	if at < e.now {
		at = e.now // the clock never runs backward
	}
	ev := e.newEvent(at, t, false)
	e.enqueue(ev)
	return ev
}

func (e *Engine) cancel(ev *event) {
	if ev != nil {
		ev.canceled = true
	}
}

// Task is an actor: a goroutine interleaved by the engine.
type Task struct {
	eng  *Engine
	name string
	slot int // index in eng.tasks

	resume chan wakeCause

	// waiting state, valid while parked in Wait/WaitTimeout
	wq          *Queue
	timeout     *event
	pendingWake *event
}

type wakeCause int

const (
	wakeTimer wakeCause = iota // scheduled event fired (Sleep, timeout)
	wakeQueue                  // woken from a Queue
	wakeStop                   // unwound by Engine.Close
)

// errStopped is the panic that unwinds a task's stack when Close stops it.
var errStopped = errors.New("sim: task stopped by Engine.Close")

// Name reports the task's debug name.
func (t *Task) Name() string { return t.name }

// Engine reports the engine the task belongs to.
func (t *Task) Engine() *Engine { return t.eng }

// Now reports current virtual time.
func (t *Task) Now() Time { return t.eng.now }

// Go spawns a new actor that begins running at the current virtual time,
// after all currently scheduled same-time events.
func (e *Engine) Go(name string, fn func(*Task)) *Task {
	return e.GoAfter(name, 0, fn)
}

// GoAfter spawns a new actor that begins running after delay d.
func (e *Engine) GoAfter(name string, d Duration, fn func(*Task)) *Task {
	t := &Task{eng: e, name: name, slot: len(e.tasks), resume: make(chan wakeCause)}
	e.tasks = append(e.tasks, t)
	e.nlive++
	e.schedule(t, e.now+Time(d))
	go func() {
		t.run(fn)
		if e.closing {
			e.handoff <- struct{}{} // tell Close the task is gone
		} else {
			e.switchTo(e.dispatch())
		}
	}()
	return t
}

// run waits for the task's first dispatch, calls fn and removes the task.
// The errStopped panic with which Close unwinds a task ends here.
func (t *Task) run(fn func(*Task)) {
	defer func() {
		if t.eng.closing {
			if r := recover(); r != nil && r != errStopped {
				panic(r)
			}
		}
		t.eng.removeTask(t)
	}()
	t.wake(<-t.resume)
	fn(t)
}

func (e *Engine) removeTask(t *Task) {
	e.tasks[t.slot] = nil
	e.nlive--
	// Compact once exited slots outnumber live tasks, so removal stays
	// O(1) amortised. Close walks the slice by index, so not while closing.
	if e.closing || e.nlive*2 >= len(e.tasks) {
		return
	}
	n := 0
	for _, u := range e.tasks {
		if u != nil {
			u.slot = n
			e.tasks[n] = u
			n++
		}
	}
	clear(e.tasks[n:])
	e.tasks = e.tasks[:n]
}

// park runs the engine loop on the parking task's goroutine and blocks
// until the task is resumed: at once, with no goroutine switch, when the
// next event is its own.
func (t *Task) park() wakeCause {
	e := t.eng
	if e.closing {
		panic(errStopped)
	}
	next, cause := e.dispatch()
	if next != t {
		e.switchTo(next, cause)
		cause = <-t.resume
	}
	return t.wake(cause)
}

// wake returns a resumption's cause, unwinding the task if Close sent it.
func (t *Task) wake(cause wakeCause) wakeCause {
	if cause == wakeStop {
		panic(errStopped)
	}
	return cause
}

// switchTo resumes next, or, when the run is over (next is nil), returns
// control to the goroutine blocked in RunUntil.
func (e *Engine) switchTo(next *Task, cause wakeCause) {
	if next == nil {
		e.handoff <- struct{}{}
		return
	}
	next.resume <- cause
}

// Sleep advances the actor's virtual time by d. Negative durations sleep
// zero time (but still yield to other same-time events).
func (t *Task) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	t.eng.schedule(t, t.eng.now+Time(d))
	t.park()
}

// Yield lets every other event scheduled for the current instant run first.
func (t *Task) Yield() { t.Sleep(0) }

// Queue is a wait queue (condition-variable analogue). The zero value is
// ready to use.
type Queue struct {
	waiters []*Task
}

// Len reports how many tasks are blocked on the queue.
func (q *Queue) Len() int { return len(q.waiters) }

// Wait parks the actor until another actor calls Wake/WakeAll on q.
func (t *Task) Wait(q *Queue) {
	q.waiters = append(q.waiters, t)
	t.wq = q
	cause := t.park()
	if cause != wakeQueue {
		panic("sim: Wait resumed by timer")
	}
	t.wq = nil
	t.pendingWake = nil
}

// WaitTimeout parks the actor until woken from q or until d elapses.
// It reports true if woken, false on timeout. If a wake and the timeout
// coincide at the same virtual instant the wake wins.
func (t *Task) WaitTimeout(q *Queue, d Duration) bool {
	q.waiters = append(q.waiters, t)
	t.wq = q
	t.timeout = t.eng.schedule(t, t.eng.now+Time(d))
	cause := t.park()
	t.wq = nil
	if cause == wakeQueue {
		t.eng.cancel(t.timeout)
		t.timeout = nil
		t.pendingWake = nil
		return true
	}
	t.timeout = nil
	if t.pendingWake != nil {
		// A Wake was delivered at the same instant the timer fired but the
		// timer event was dequeued first. Honor the wake: the waker already
		// removed us from the queue and counted us as woken.
		t.eng.cancel(t.pendingWake)
		t.pendingWake = nil
		return true
	}
	// Timed out: remove self from the queue.
	q.remove(t)
	return false
}

func (q *Queue) remove(t *Task) {
	for i, w := range q.waiters {
		if w == t {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}

// Wake wakes up to n tasks from the queue, in FIFO order. It must be called
// from a running actor (or from a syscall executed on behalf of one). Woken
// tasks resume at the current virtual time, after the caller next parks.
func (q *Queue) Wake(n int) int {
	woken := 0
	for woken < n && len(q.waiters) > 0 {
		t := q.waiters[0]
		q.waiters = q.waiters[1:]
		t.deliverWake()
		woken++
	}
	return woken
}

// WakeAll wakes every waiting task.
func (q *Queue) WakeAll() int { return q.Wake(len(q.waiters)) }

// WakeTask wakes t if it is blocked on q (used to deliver signals to a
// process blocked in a specific wait). It reports whether t was found.
func (q *Queue) WakeTask(t *Task) bool {
	for i, w := range q.waiters {
		if w == t {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			t.deliverWake()
			return true
		}
	}
	return false
}

func (t *Task) deliverWake() {
	e := t.eng
	ev := e.newEvent(e.now, t, true)
	e.enqueue(ev) // wakes are always same-instant: straight to the run queue
	t.pendingWake = ev
}

// StallError is returned by Run when no events remain but actors are still
// blocked (a deadlock in the simulated system).
type StallError struct {
	At      Time
	Blocked []string
}

func (s *StallError) Error() string {
	return fmt.Sprintf("sim: stalled at t=%d with %d blocked task(s): %v", s.At, len(s.Blocked), s.Blocked)
}

// Run drives the simulation until no live tasks remain. It returns a
// *StallError if tasks remain blocked with no pending events.
func (e *Engine) Run() error { return e.RunUntil(Time(1)<<62 - 1) }

// RunUntil drives the simulation until no live tasks remain or the clock
// would pass limit. Events beyond limit stay queued.
func (e *Engine) RunUntil(limit Time) error {
	e.limit = limit
	if next, cause := e.dispatch(); next != nil {
		next.resume <- cause
		<-e.handoff
		e.current = nil
	}
	err := e.runErr
	e.runErr = nil
	return err
}

// dispatch selects the next event and returns the task to resume with its
// cause. It returns a nil task when the run is over — the clock would pass
// the limit, or no events remain — with any StallError in e.runErr.
func (e *Engine) dispatch() (*Task, wakeCause) {
	// A long same-instant storm leaves a drained prefix in the run queue;
	// compact it so the slice does not grow without bound.
	if e.runqHead > 1024 && e.runqHead*2 >= len(e.runq) {
		n := copy(e.runq, e.runq[e.runqHead:])
		clear(e.runq[n:])
		e.runq = e.runq[:n]
		e.runqHead = 0
	}
	var ev *event
	// Due heap events first: anything stamped with the current instant
	// was scheduled before the clock reached it, so it outranks (has a
	// lower seq than) every run-queue entry.
	for len(e.heap) > 0 && e.heap[0].canceled {
		e.stats.Canceled++
		e.freeEvent(e.heapPop())
	}
	if len(e.heap) > 0 && e.heap[0].t == e.now {
		ev = e.heapPop()
	} else {
		// Then the same-instant run queue, in FIFO (= seq) order.
		for e.runqHead < len(e.runq) {
			c := e.runq[e.runqHead]
			e.runq[e.runqHead] = nil
			e.runqHead++
			if c.canceled {
				e.stats.Canceled++
				e.freeEvent(c)
				continue
			}
			ev = c
			break
		}
		if ev == nil {
			// Instant exhausted: reset the run queue and advance the
			// clock to the next pending timer.
			e.runq = e.runq[:0]
			e.runqHead = 0
			if len(e.heap) == 0 {
				if e.nlive > 0 {
					e.runErr = &StallError{At: e.now, Blocked: e.blockedNames()}
				}
				return nil, wakeTimer
			}
			if e.heap[0].t > e.limit {
				return nil, wakeTimer
			}
			ev = e.heapPop()
			e.now = ev.t
		}
	}
	cause := wakeTimer
	if ev.fromQueue {
		cause = wakeQueue
	}
	task := ev.task
	e.freeEvent(ev)
	e.stats.Dispatched++
	if task != e.last {
		e.stats.Switches++
		e.last = task
	}
	e.current = task
	return task, cause
}

// Close ends the simulation: it unwinds every task that has not finished,
// in spawn order, and waits for each goroutine to exit. A parked task
// resumes with a panic that runs its deferred calls and is recovered when
// it reaches the task's outermost frame; a task that has not started never
// runs. Call Close from outside any task, after Run or RunUntil returned;
// the engine must not be used afterwards.
func (e *Engine) Close() {
	e.closing = true
	for i := 0; i < len(e.tasks); i++ {
		if t := e.tasks[i]; t != nil {
			e.current = t
			t.resume <- wakeStop
			<-e.handoff
		}
	}
	e.current = nil
}

func (e *Engine) blockedNames() []string {
	var names []string
	for _, t := range e.tasks {
		if t != nil {
			names = append(names, t.name)
		}
	}
	sort.Strings(names)
	return names
}
