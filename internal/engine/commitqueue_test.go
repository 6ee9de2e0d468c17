package engine

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// queueRig is a CommitQueue over one store with fake steps. The flushes
// it ran are recorded as the ids of the steps each served, in order
// (written under the latch, read after the queue is idle).
type queueRig struct {
	s       *Store
	q       *CommitQueue
	flushes [][]int
	results sync.WaitGroup
}

func newQueueRig(maxBatch int, log CommitLog) *queueRig {
	r := &queueRig{s: Open(Config{})}
	r.s.SetCommitLog(log)
	r.q = NewCommitQueue([]*Store{r.s}, []int{0}, GroupCommit{MaxBatch: maxBatch},
		func() { r.flushes = append(r.flushes, nil) })
	return r
}

// ran records step id in the flush serving it; steps call it first.
func (r *queueRig) ran(id int) {
	r.flushes[len(r.flushes)-1] = append(r.flushes[len(r.flushes)-1], id)
}

// submit enqueues step id behind whatever is queued already and returns
// once it is in the queue; its verdict arrives on the returned channel.
func (r *queueRig) submit(id, prio int, install bool) chan error {
	queued, verdict := r.q.Pending()+1, make(chan error, 1)
	r.results.Add(1)
	go func() {
		defer r.results.Done()
		verdict <- r.q.Commit(prio, nil, func() bool {
			r.ran(id)
			if install {
				r.s.ApplyLocked(map[string][]byte{"k": {byte(id)}}, 0)
			}
			return install
		})
	}()
	for r.q.Pending() < queued {
		runtime.Gosched()
	}
	return verdict
}

// lead starts the leader: a step (id 0) parked inside the flush it leads,
// holding the queue open until release is closed. done is closed when the
// leader's Commit has returned.
func (r *queueRig) lead() (release, done chan struct{}) {
	release, done = make(chan struct{}), make(chan struct{})
	entered := make(chan struct{})
	go func() {
		defer close(done)
		r.q.Commit(0, nil, func() bool {
			r.ran(0)
			close(entered)
			<-release
			return false
		})
	}()
	<-entered
	return release, done
}

// TestCommitQueueBatchCapAndHostageBound: a flush takes at most maxBatch
// steps and the rest is the next batch; and a leader serves at most
// maxBatch steps beyond its first batch before its own Commit returns —
// here it returns while the detached drainer's first step is still parked,
// which an inline drain to the end could never do.
func TestCommitQueueBatchCapAndHostageBound(t *testing.T) {
	const max = 3
	r := newQueueRig(max, nil)
	release, led := r.lead()
	for id := 1; id <= max; id++ {
		r.submit(id, 0, false)
	}
	// Step max+1 opens the detached drainer's first batch: park it.
	parked, unpark := make(chan struct{}), make(chan struct{})
	r.results.Add(1)
	go func() {
		defer r.results.Done()
		r.q.Commit(0, nil, func() bool {
			r.ran(max + 1)
			close(parked)
			<-unpark
			return false
		})
	}()
	for r.q.Pending() < max+1 {
		runtime.Gosched()
	}
	for id := max + 2; id <= 2*max+1; id++ {
		r.submit(id, 0, false)
	}
	close(release)
	<-led // deadlocks here if the leader were held for the whole queue
	<-parked
	if got := r.q.Pending(); got != 1 {
		t.Errorf("pending behind the detached drainer's first flush = %d, want 1", got)
	}
	close(unpark)
	r.results.Wait()
	want := [][]int{{0}, {1, 2, 3}, {4, 5, 6}, {7}}
	if !slices.EqualFunc(r.flushes, want, slices.Equal[[]int]) {
		t.Errorf("flushes = %v, want %v", r.flushes, want)
	}
}

// TestCommitQueuePriority: higher prio is served first — also across a
// batch cap, which takes the highest — and FIFO holds within equal prio.
func TestCommitQueuePriority(t *testing.T) {
	r := newQueueRig(2, nil)
	release, led := r.lead()
	for i, prio := range []int{0, 2, 1, 2, 0, 1} {
		r.submit(i+1, prio, false)
	}
	close(release)
	<-led
	r.results.Wait()
	want := [][]int{{0}, {2, 4}, {3, 6}, {1, 5}}
	if !slices.EqualFunc(r.flushes, want, slices.Equal[[]int]) {
		t.Errorf("flushes = %v, want %v", r.flushes, want)
	}
}

// failLog is a durable log whose Sync fails.
type failLog struct {
	nopLog
	err error
}

func (l failLog) Durable() bool { return true }
func (l failLog) Sync() error   { return l.err }

// TestCommitQueueBoundaryError: when the boundary fails, the steps of the
// batch that installed get the *SyncError and the ones that did not get
// nil — the error is not theirs.
func TestCommitQueueBoundaryError(t *testing.T) {
	cause := errors.New("injected sync failure")
	r := newQueueRig(8, failLog{err: cause})
	release, led := r.lead()
	verdicts := []chan error{r.submit(1, 0, true), r.submit(2, 0, false), r.submit(3, 0, true)}
	close(release)
	<-led
	for i, v := range verdicts {
		err := <-v
		var se *SyncError
		if installed := i != 1; installed && (!errors.As(err, &se) || !errors.Is(err, cause)) {
			t.Errorf("installed step %d: verdict %v, want *SyncError wrapping the cause", i+1, err)
		} else if !installed && err != nil {
			t.Errorf("step %d installed nothing: verdict %v, want nil", i+1, err)
		}
	}
	if len(r.flushes) != 2 {
		t.Errorf("flushes = %v, want the leader's and one shared by the three", r.flushes)
	}
}

// overlapLog fails the test if two of its Syncs overlap: every installing
// flush crosses Sync outside the latch, so two flushes of one queue
// running at once would meet here.
type overlapLog struct {
	nopLog
	t      *testing.T
	inSync atomic.Int32
}

func (l *overlapLog) Durable() bool { return true }
func (l *overlapLog) Sync() error {
	if l.inSync.Add(1) != 1 {
		l.t.Error("two flushes of one queue ran concurrently")
	}
	runtime.Gosched()
	l.inSync.Add(-1)
	return nil
}

// TestCommitQueueNeverOrphans hammers one queue through leader election,
// inline drain and detach: every submitted step runs exactly once and gets
// its verdict (an orphan would hang the test), and no two flushes overlap.
func TestCommitQueueNeverOrphans(t *testing.T) {
	const workers, rounds = 16, 200
	s := Open(Config{})
	s.SetCommitLog(&overlapLog{t: t})
	flushes, ran := 0, 0
	q := NewCommitQueue([]*Store{s}, []int{0}, GroupCommit{MaxBatch: 3}, func() { flushes++ })
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := q.Commit(i%3, nil, func() bool {
					ran++
					s.ApplyLocked(map[string][]byte{"k": {1}}, 0)
					return true
				}); err != nil {
					t.Errorf("commit: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if ran != workers*rounds || flushes == 0 || flushes > ran {
		t.Errorf("ran %d steps in %d flushes, want %d steps in [1, %d] flushes", ran, flushes, workers*rounds, workers*rounds)
	}
}
