package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// The dispatcher's conformance suite, run over both configurations it
// ships in: the server's (errors final) and the gateway's (errors
// retried after a delay). It pins the dispatch contract both build on:
// every accepted id executes exactly once (when the executor succeeds),
// in FIFO order, on at most the configured number of slots; a full
// backlog refuses with ErrQueueFull; Shutdown drains what was accepted
// and refuses what comes after.

func TestPoolSchedulerConformance(t *testing.T)  { fifoConformance(t, 0) }
func TestRetrySchedulerConformance(t *testing.T) { fifoConformance(t, 2*time.Millisecond) }

func fifoConformance(t *testing.T, retryDelay time.Duration) {
	for _, c := range []struct {
		name string
		run  func(t *testing.T, retryDelay time.Duration)
	}{
		{"ExactlyOnceFIFO", exactlyOnceFIFO},
		{"ConcurrencyBound", concurrencyBound},
		{"QueueFull", queueFull},
		{"ShutdownDrains", shutdownDrains},
		{"EnqueueAfterShutdown", enqueueAfterShutdown},
	} {
		t.Run(c.name, func(t *testing.T) { c.run(t, retryDelay) })
	}
}

// exactlyOnceFIFO: one slot, N ids — each executes once, in enqueue
// order.
func exactlyOnceFIFO(t *testing.T, retryDelay time.Duration) {
	var (
		mu  sync.Mutex
		got []string
	)
	s := newFIFO(1, 64, retryDelay, nil, func(id string) error {
		mu.Lock()
		got = append(got, id)
		mu.Unlock()
		return nil
	})
	var want []string
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("t%02d", i)
		want = append(want, id)
		if err := s.Enqueue(id); err != nil {
			t.Fatalf("enqueue %s: %v", id, err)
		}
	}
	if err := s.Shutdown(testCtx(t)); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("executed %v, want FIFO %v", got, want)
	}
}

// concurrencyBound: never more than `workers` executors in flight.
func concurrencyBound(t *testing.T, retryDelay time.Duration) {
	const workers, tasks = 3, 12
	var (
		mu       sync.Mutex
		inflight int
		peak     int
		ran      int
	)
	s := newFIFO(workers, tasks, retryDelay, nil, func(id string) error {
		mu.Lock()
		inflight++
		if inflight > peak {
			peak = inflight
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		inflight--
		ran++
		mu.Unlock()
		return nil
	})
	for i := 0; i < tasks; i++ {
		if err := s.Enqueue(fmt.Sprintf("c%02d", i)); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	if err := s.Shutdown(testCtx(t)); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran != tasks {
		t.Errorf("executed %d tasks, want %d", ran, tasks)
	}
	if peak > workers {
		t.Errorf("peak concurrency %d exceeded %d slots", peak, workers)
	}
}

// queueFull: with every slot blocked and the backlog at depth, the next
// enqueue refuses with ErrQueueFull — and everything accepted still
// executes once the slots free up.
func queueFull(t *testing.T, retryDelay time.Duration) {
	gate := make(chan struct{})
	started := make(chan string, 8)
	var (
		mu  sync.Mutex
		ran []string
	)
	s := newFIFO(1, 2, retryDelay, nil, func(id string) error {
		started <- id
		<-gate
		mu.Lock()
		ran = append(ran, id)
		mu.Unlock()
		return nil
	})
	// "a" occupies the slot (wait for it to leave the backlog), then
	// "b","c" fill the depth-2 backlog.
	if err := s.Enqueue("a"); err != nil {
		t.Fatalf("enqueue a: %v", err)
	}
	select {
	case <-started: // "a" is in flight; the backlog is empty
	case <-time.After(5 * time.Second):
		t.Fatal("executor never started")
	}
	for _, id := range []string{"b", "c"} {
		if err := s.Enqueue(id); err != nil {
			t.Fatalf("enqueue %s: %v", id, err)
		}
	}
	if err := s.Enqueue("d"); !errors.Is(err, ErrQueueFull) {
		t.Errorf("enqueue past depth = %v, want ErrQueueFull", err)
	}
	if q := s.Queued(); q != 2 {
		t.Errorf("Queued() = %d, want 2", q)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		<-started
	}
	if err := s.Shutdown(testCtx(t)); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(ran) != fmt.Sprint([]string{"a", "b", "c"}) {
		t.Errorf("executed %v, want [a b c]", ran)
	}
}

// shutdownDrains: ids accepted before Shutdown all execute; Shutdown
// returns only after they have.
func shutdownDrains(t *testing.T, retryDelay time.Duration) {
	var (
		mu  sync.Mutex
		ran int
	)
	s := newFIFO(2, 64, retryDelay, nil, func(id string) error {
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		ran++
		mu.Unlock()
		return nil
	})
	const n = 10
	for i := 0; i < n; i++ {
		if err := s.Enqueue(fmt.Sprintf("d%02d", i)); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	if err := s.Shutdown(testCtx(t)); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran != n {
		t.Errorf("shutdown returned with %d/%d executed", ran, n)
	}
}

// enqueueAfterShutdown: intake is closed for good.
func enqueueAfterShutdown(t *testing.T, retryDelay time.Duration) {
	s := newFIFO(1, 4, retryDelay, nil, func(id string) error { return nil })
	if err := s.Shutdown(testCtx(t)); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := s.Enqueue("late"); !errors.Is(err, ErrSchedulerClosed) {
		t.Errorf("enqueue after shutdown = %v, want ErrSchedulerClosed", err)
	}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestRetrySchedulerRequeuesOnError pins the fleet robustness contract:
// a failing dispatch is retried until it sticks, so queued work
// survives windows with no live workers, and the retry hook counts each
// re-enqueue.
func TestRetrySchedulerRequeuesOnError(t *testing.T) {
	var (
		mu       sync.Mutex
		attempts int
		retries  int // written by the hook with the FIFO's lock held
	)
	done := make(chan struct{})
	s := newFIFO(1, 8, time.Millisecond, func() { retries++ }, func(id string) error {
		mu.Lock()
		defer mu.Unlock()
		attempts++
		if attempts < 3 {
			return errors.New("no live workers")
		}
		close(done)
		return nil
	})
	if err := s.Enqueue("flaky"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("dispatch never succeeded")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 3 || retries != 2 {
		t.Errorf("attempts = %d, retries = %d, want 3 and 2 (two retries, then success)", attempts, retries)
	}
}

// TestPoolSchedulerErrorIsFinal: the in-process backend never retries —
// a failed run records its own failure, and re-running identical
// physics reproduces it.
func TestPoolSchedulerErrorIsFinal(t *testing.T) {
	var (
		mu       sync.Mutex
		attempts int
	)
	s := newFIFO(1, 8, 0, nil, func(id string) error {
		mu.Lock()
		attempts++
		mu.Unlock()
		return errors.New("boom")
	})
	if err := s.Enqueue("once"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 1 {
		t.Errorf("attempts = %d, want exactly 1", attempts)
	}
}
