// Pooled goroutines for a transaction's concurrent runs. A speculative
// shadow replays its transaction's closure, and a serving-layer session
// runs its engine transaction, on a goroutine of their own; both call
// chains run deep (closure → Tx.Get → the Read Rule), so a fresh
// goroutine per run paid for stack growth on every one (runtime.newstack
// dominated contended profiles). A Pool keeps finished goroutines, stacks
// already grown, for the next run. It has no size setting: it holds as
// many goroutines as runs were ever in flight at once, which the work
// bounds — one shadow per transaction, one engine run per session.

package engine

import "sync"

// Pool runs functions on reused goroutines. The zero value is ready to
// use; its owner calls Close once no more runs are wanted.
type Pool struct {
	mu     sync.Mutex
	idle   []chan func() // parked workers, most recently parked last
	closed bool
	// workers counts the goroutines started before Close; each is done
	// once it has left work for good.
	workers sync.WaitGroup
}

// Go runs fn on an idle worker, or on a new one when none is idle. It
// never blocks. After Close, fn runs on a goroutine that exits with it.
func (p *Pool) Go(fn func()) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		w <- fn
		return
	}
	if p.closed {
		p.mu.Unlock()
		go fn()
		return
	}
	p.workers.Add(1)
	p.mu.Unlock()
	go func() {
		p.work(fn)
		p.workers.Done()
	}()
}

// work is one worker: it runs fn, then parks until Go hands it the next
// function or Close dismisses it.
func (p *Pool) work(fn func()) {
	w := make(chan func(), 1) // one hand-off at a time: Go unparks w first
	for fn != nil {
		fn()
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.idle = append(p.idle, w)
		p.mu.Unlock()
		fn = <-w // nil once Close closes w
	}
}

// Close dismisses the idle workers and returns once every worker has
// exited: a busy one exits when its function returns. Close is
// idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, w := range idle {
		close(w)
	}
	p.workers.Wait()
}
