package service

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Dispatch errors. Enqueue classifies them so the HTTP layer can map a
// full queue to 503 without string matching.
var (
	// ErrQueueFull means the backlog bound is hit; the caller should
	// refuse the submission rather than buffer without bound.
	ErrQueueFull = errors.New("service: scheduler queue full")
	// ErrSchedulerClosed means Shutdown already stopped intake.
	ErrSchedulerClosed = errors.New("service: scheduler closed")
)

// fifo dispatches run ids: a mutex/cond guarded list drained by a
// fixed pool of slot goroutines that call exec once per accepted id, in
// FIFO order. The server runs it with errors final — a run that fails
// records its failure on itself, and retrying locally would re-run
// identical physics to an identical failure. The fleet gateway runs it
// with a retry delay: exec routes an id to a remote worker, and a
// dispatch error (no live workers, a worker that died mid-handoff)
// re-enqueues the id after the delay, indefinitely, bypassing the depth
// bound (retries are work already accepted, not new intake) — queued
// work survives empty-fleet windows and worker churn.
//
// Executors are handed opaque ids, not run state: cancellation is the
// executor's concern (executing a cancelled id must be a cheap no-op,
// and the gateway's returns nil for ids that no longer need dispatch),
// which keeps the dispatcher free of run lifecycle knowledge.
type fifo struct {
	exec  func(id string) error
	depth int
	// retryDelay > 0 turns executor errors into delayed re-enqueues;
	// 0 makes errors final (the executor records failures itself).
	retryDelay time.Duration
	// onRetry, when set, fires once per delayed re-enqueue with mu
	// held; it must not call back in.
	onRetry func()

	mu     sync.Mutex
	cond   *sync.Cond
	list   []string
	closed bool

	wg     sync.WaitGroup // slot goroutines
	timers sync.WaitGroup // pending retry re-enqueues
}

func newFIFO(workers, depth int, retryDelay time.Duration, onRetry func(), exec func(id string) error) *fifo {
	if workers <= 0 {
		workers = 1
	}
	if depth <= 0 {
		depth = 256
	}
	f := &fifo{exec: exec, depth: depth, retryDelay: retryDelay, onRetry: onRetry}
	f.cond = sync.NewCond(&f.mu)
	for w := 0; w < workers; w++ {
		f.wg.Add(1)
		go f.slot()
	}
	return f
}

func (f *fifo) slot() {
	defer f.wg.Done()
	for {
		f.mu.Lock()
		for len(f.list) == 0 && !f.closed {
			f.cond.Wait()
		}
		if len(f.list) == 0 {
			// closed and drained — the slot retires. Pending retry
			// timers drop their ids on close, so no append races this
			// exit.
			f.mu.Unlock()
			return
		}
		id := f.list[0]
		f.list = f.list[1:]
		f.mu.Unlock()

		err := f.exec(id)
		if err != nil && f.retryDelay > 0 {
			f.timers.Add(1)
			go func(id string) {
				defer f.timers.Done()
				time.Sleep(f.retryDelay)
				f.mu.Lock()
				if !f.closed {
					f.list = append(f.list, id)
					if f.onRetry != nil {
						f.onRetry()
					}
					f.cond.Broadcast()
				}
				f.mu.Unlock()
			}(id)
		}
	}
}

// Enqueue accepts one id for execution: ErrQueueFull past the depth
// bound, ErrSchedulerClosed after Shutdown.
func (f *fifo) Enqueue(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrSchedulerClosed
	}
	if len(f.list) >= f.depth {
		return ErrQueueFull
	}
	f.list = append(f.list, id)
	f.cond.Broadcast()
	return nil
}

// Queued reports the waiting backlog.
func (f *fifo) Queued() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.list)
}

// Shutdown stops intake and waits for the backlog, in-flight executions
// and pending retry timers to settle; on ctx expiry it returns ctx.Err()
// and may be called again to keep waiting.
func (f *fifo) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()

	done := make(chan struct{})
	go func() {
		f.timers.Wait()
		f.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
