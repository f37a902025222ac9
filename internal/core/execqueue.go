// The execute stage used to spawn one goroutine per transaction, so a
// 10k-transaction block cost 10k goroutines (plus their stacks) before
// the first contract ran. execQueue replaces the spawn with a two-level
// scheduling queue drained by a fixed pool of GOMAXPROCS workers:
//
//   - runnable jobs, whose snapshot height is already committed, wait in
//     FIFO order for a worker;
//   - parked jobs, whose snapshot height lies in the future (execute-order
//     speculation against a snapshot the node hasn't reached), wait keyed
//     by that height WITHOUT occupying a worker.
//
// Parking is what keeps the fixed pool deadlock-free: if waiting jobs
// held worker slots, a block full of future-snapshot transactions would
// fill the pool with waiters and stall the very commit that would have
// released them. bumpHeight moves parked jobs to the runnable list as
// their heights commit. This parking is the node's ONLY snapshot-height
// wait (§3.4.1 / §4.2): put decides under the queue lock, so a worker
// never holds a job whose snapshot is uncommitted, and runExecution does
// not wait again.

package core

import (
	"errors"
	"sync"
)

var (
	errQueueClosed = errors.New("node stopped")
	// errCancelled is the reason of a queued execution withdrawn before
	// running (cancelExecution).
	errCancelled = errors.New("snapshot height unavailable")
)

// execJob is one queued execution with the snapshot it runs against.
type execJob struct {
	e        *execution
	snapshot int64
}

// execQueue is the execute-stage scheduler. heightFn reads the committed
// height (inside the queue lock, so a put racing a concurrent bumpHeight
// can never park a job whose release signal already fired).
type execQueue struct {
	heightFn func() int64

	mu     sync.Mutex
	cond   *sync.Cond
	ready  []execJob
	parked map[int64][]execJob
	closed bool
}

func newExecQueue(heightFn func() int64) *execQueue {
	q := &execQueue{heightFn: heightFn, parked: make(map[int64][]execJob)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// put schedules an execution. On a closed queue the job fails
// immediately (err set, done closed) so waiters never hang.
func (q *execQueue) put(e *execution, snapshot int64) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		e.err = errQueueClosed
		close(e.done)
		return
	}
	if q.heightFn() >= snapshot {
		q.ready = append(q.ready, execJob{e, snapshot})
		q.cond.Signal()
	} else {
		q.parked[snapshot] = append(q.parked[snapshot], execJob{e, snapshot})
	}
	q.mu.Unlock()
}

// release moves every job parked at or below height h to the runnable
// list. bumpHeight calls it right after SetHeight.
func (q *execQueue) release(h int64) {
	q.mu.Lock()
	woke := false
	for at, jobs := range q.parked {
		if at <= h {
			q.ready = append(q.ready, jobs...)
			delete(q.parked, at)
			woke = true
		}
	}
	if woke {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// take blocks until a runnable job is available or the queue closes.
func (q *execQueue) take() (execJob, bool) {
	q.mu.Lock()
	for len(q.ready) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.ready) == 0 {
		q.mu.Unlock()
		return execJob{}, false
	}
	j := q.ready[0]
	q.ready[0] = execJob{}
	q.ready = q.ready[1:]
	q.mu.Unlock()
	return j, true
}

// remove withdraws a not-yet-started execution from the queue. It
// reports whether the job was found (and therefore will never run); a
// false return means a worker already took it and the caller must wait
// for e.done instead.
func (q *execQueue) remove(e *execution) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range q.ready {
		if q.ready[i].e == e {
			q.ready = append(q.ready[:i], q.ready[i+1:]...)
			return true
		}
	}
	for at, jobs := range q.parked {
		for i := range jobs {
			if jobs[i].e == e {
				q.parked[at] = append(jobs[:i], jobs[i+1:]...)
				if len(q.parked[at]) == 0 {
					delete(q.parked, at)
				}
				return true
			}
		}
	}
	return false
}

// close fails every queued job and wakes the workers so they exit. Jobs
// a worker already took run to completion (the store is still open
// during shutdown).
func (q *execQueue) close() {
	q.mu.Lock()
	q.closed = true
	orphans := q.ready
	q.ready = nil
	for _, jobs := range q.parked {
		orphans = append(orphans, jobs...)
	}
	q.parked = map[int64][]execJob{}
	q.cond.Broadcast()
	q.mu.Unlock()
	for _, j := range orphans {
		j.e.err = errQueueClosed
		close(j.e.done)
	}
}
