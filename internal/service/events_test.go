package service

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestEventLog pins the one replay-then-follow loop behind both SSE
// streams (runs and twins).
func TestEventLog(t *testing.T) {
	newLog := func(types ...string) *eventLog {
		l := &eventLog{}
		l.init()
		l.mu.Lock()
		for _, typ := range types {
			l.appendLocked(typ, Event{})
		}
		l.mu.Unlock()
		return l
	}
	finish := func(l *eventLog) {
		l.mu.Lock()
		l.appendLocked("done", Event{})
		l.mu.Unlock()
	}

	t.Run("late subscriber replays from seq 0 and the terminal state ends the stream", func(t *testing.T) {
		l := newLog("queued", "started")
		got := make(chan Event, 8)
		done := make(chan error, 1)
		go func() {
			done <- l.follow(context.Background(), func(e Event) error { got <- e; return nil })
		}()
		for want, typ := range []string{"queued", "started"} {
			if e := <-got; e.Seq != want || e.Type != typ {
				t.Fatalf("replayed event = %+v, want seq %d type %s", e, want, typ)
			}
		}
		select {
		case err := <-done:
			t.Fatalf("follow returned %v while the log was still live", err)
		case <-time.After(20 * time.Millisecond):
		}
		finish(l)
		if e := <-got; e.Seq != 2 || e.Type != "done" {
			t.Fatalf("live event = %+v, want seq 2 type done", e)
		}
		if err := <-done; err != nil {
			t.Fatalf("follow = %v, want nil once terminal and fully delivered", err)
		}
		// A subscriber arriving after the end still gets the whole log.
		n := 0
		if err := l.follow(context.Background(), func(e Event) error { n++; return nil }); err != nil || n != 3 {
			t.Fatalf("post-terminal follow = %d events, %v; want 3, nil", n, err)
		}
	})

	t.Run("ctx cancel unblocks a waiting follower", func(t *testing.T) {
		l := newLog("queued")
		ctx, cancel := context.WithCancel(context.Background())
		delivered := make(chan struct{}, 1)
		done := make(chan error, 1)
		go func() {
			done <- l.follow(ctx, func(Event) error { delivered <- struct{}{}; return nil })
		}()
		<-delivered // the follower is past the replay and about to wait
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("follow = %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("follower still blocked after its context ended")
		}
	})

	t.Run("fn error aborts", func(t *testing.T) {
		l := newLog("queued", "started")
		boom := errors.New("client went away")
		n := 0
		err := l.follow(context.Background(), func(Event) error { n++; return boom })
		if !errors.Is(err, boom) || n != 1 {
			t.Fatalf("follow = %v after %d events, want the fn error after 1", err, n)
		}
	})
}
