package serve

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// Job lifecycle states reported by the job API. A job moves strictly
// queued → running → done|failed; completed jobs stay resident in the
// store, the one home of results, until evicted by capacity pressure, so
// a repeated request is a hit, not a recompute.
const (
	jobQueued  = "queued"
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// storedJob is one entry of the job store. Identity fields (id, digest,
// technique, quality, ctx, cancel, done, submitted) are immutable after
// creation; lifecycle fields (status, res, err, completedMS, waiters,
// held) are written only by jobStore methods holding the store mutex, and
// readers take a snapshot under the same mutex.
type storedJob struct {
	id        string
	digest    string
	technique string
	quality   bool
	// ctx is the computation's context, detached from every request: it
	// ends when cancel is called, by the last departing waiter of a job
	// nobody holds or by the worker once the job completes.
	ctx       context.Context
	cancel    context.CancelFunc
	done      chan struct{} // closed exactly once, on completion
	submitted time.Time

	status      string
	res         *reorderResult
	err         error
	completedMS float64 // wall time from submit to completion
	waiters     int     // /reorder requests blocked on done
	held        bool    // a POST /jobs client holds the job: no departure cancels it
}

// jobSnapshot is an immutable copy of a job's state, safe to use without
// holding the store lock.
type jobSnapshot struct {
	ID          string
	Digest      string
	Technique   string
	Status      string
	Res         *reorderResult
	Err         error
	CompletedMS float64
}

// jobStore is the content-addressed job index and the service's only
// result cache: job IDs are derived from the matrix digest and technique,
// so identical requests collapse onto one entry regardless of endpoint,
// client or forwarding peer. Completed jobs are retained LRU-bounded by
// capacity; queued and running jobs are never evicted (the worker queue
// depth bounds how many can exist). A failed job stays only while a
// POST /jobs client holds it, and the next request for its key replaces
// it.
type jobStore struct {
	mu       sync.Mutex
	capacity int
	byID     map[string]*list.Element
	order    *list.List // front = most recently touched; stores *storedJob
}

// newJobStore returns an empty store retaining up to capacity jobs.
func newJobStore(capacity int) *jobStore {
	if capacity < 1 {
		capacity = 1
	}
	return &jobStore{
		capacity: capacity,
		byID:     make(map[string]*list.Element, capacity),
		order:    list.New(),
	}
}

// acquire returns the job for id, creating it queued when absent or
// failed: a holder (POST /jobs) and a waiter (/reorder) alike replace a
// failed job. A holder marks the job held; a waiter counts itself among
// the waiters of an incomplete one. existed reports a job that was already
// resident, finished one that was already done when it was looked up.
func (st *jobStore) acquire(id, digest, technique string, quality, hold bool) (j *storedJob, existed, finished bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.byID[id]; ok {
		j = el.Value.(*storedJob)
		if j.status != jobFailed {
			st.order.MoveToFront(el)
			finished = j.status == jobDone
			j.held = j.held || hold
			if !hold && !finished {
				j.waiters++
			}
			return j, true, finished
		}
		st.removeLocked(j)
	}
	//lint:allow ctxflow a job outlives the request that creates it; its waiters and holders decide when it stops
	ctx, cancel := context.WithCancel(context.Background())
	j = &storedJob{
		id:        id,
		digest:    digest,
		technique: technique,
		quality:   quality,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		submitted: time.Now(),
		status:    jobQueued,
		held:      hold,
	}
	if !hold {
		j.waiters = 1
	}
	st.byID[id] = st.order.PushFront(j)
	st.evictLocked()
	return j, false, false
}

// get returns the job for id, refreshing its recency, or nil.
func (st *jobStore) get(id string) *storedJob {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.byID[id]
	if !ok {
		return nil
	}
	st.order.MoveToFront(el)
	return el.Value.(*storedJob)
}

// leave records a waiter giving up on j. The last waiter of an incomplete
// job nobody holds cancels the computation and drops the job, so the next
// request for the same key starts afresh rather than joining a job that
// is bound to fail.
func (st *jobStore) leave(j *storedJob) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j.waiters--
	if j.waiters > 0 || j.held || j.status == jobDone || j.status == jobFailed {
		return
	}
	j.cancel()
	st.removeLocked(j)
}

// remove drops j, held or not; the pool refused it, so nobody will run it.
func (st *jobStore) remove(j *storedJob) {
	st.mu.Lock()
	st.removeLocked(j)
	st.mu.Unlock()
}

// removeLocked drops j if it is still the resident job for its ID (a
// replacement may have taken the ID since).
func (st *jobStore) removeLocked(j *storedJob) {
	if el, ok := st.byID[j.id]; ok && el.Value.(*storedJob) == j {
		st.order.Remove(el)
		delete(st.byID, j.id)
	}
}

// setRunning transitions the job to running.
func (st *jobStore) setRunning(j *storedJob) {
	st.mu.Lock()
	j.status = jobRunning
	st.mu.Unlock()
}

// complete finishes the job with a result or an error, records the wall
// time since submission, and wakes every waiter and long-poll by closing
// done. A failed job nobody holds is dropped, so no later request finds
// an error it did not ask for.
func (st *jobStore) complete(j *storedJob, res *reorderResult, err error) {
	st.mu.Lock()
	if err != nil {
		j.status, j.err = jobFailed, err
		if !j.held {
			st.removeLocked(j)
		}
	} else {
		j.status, j.res = jobDone, res
	}
	j.completedMS = float64(time.Since(j.submitted)) / float64(time.Millisecond)
	st.mu.Unlock()
	close(j.done)
}

// snapshot copies the job's current state under the store lock.
func (st *jobStore) snapshot(j *storedJob) jobSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	return jobSnapshot{
		ID:          j.id,
		Digest:      j.digest,
		Technique:   j.technique,
		Status:      j.status,
		Res:         j.res,
		Err:         j.err,
		CompletedMS: j.completedMS,
	}
}

// len returns the number of resident jobs (all states).
func (st *jobStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.order.Len()
}

// evictLocked removes least-recently-touched completed jobs until the
// store fits its capacity. Incomplete jobs are skipped: their done channel
// is the waiters' wakeup and their entry is the dedup point, so dropping
// one would orphan waiters and re-run work.
func (st *jobStore) evictLocked() {
	for st.order.Len() > st.capacity {
		evicted := false
		for el := st.order.Back(); el != nil; el = el.Prev() {
			j := el.Value.(*storedJob)
			if j.status == jobDone || j.status == jobFailed {
				st.order.Remove(el)
				delete(st.byID, j.id)
				evicted = true
				break
			}
		}
		if !evicted {
			return // nothing evictable; allow transient overshoot
		}
	}
}
