package service

import (
	"context"
	"sync"
)

// Event is one entry of a run's (or twin's) progress log, streamed over
// SSE and replayed to late subscribers in order. Seq increases by one
// per event.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // queued|started|cell|done|failed|cancelled
	// Cell/Done/Total/ElapsedMS describe finished sweep cells (type
	// "cell").
	Cell      string  `json:"cell,omitempty"`
	Done      int     `json:"done,omitempty"`
	Total     int     `json:"total,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// eventLog is the append-only event log of one live run or twin
// session, with the replay-then-follow loop its SSE stream rides on.
// The log closes on its terminal event: done, failed or cancelled is
// appended exactly as the owner's state turns terminal, and is the last
// event. mu also guards the embedding type's mutable fields; call init
// before use.
type eventLog struct {
	mu     sync.Mutex
	cond   *sync.Cond // signals event appends
	events []Event
}

func (l *eventLog) init() {
	l.cond = sync.NewCond(&l.mu)
}

// appendLocked stamps and appends one event and wakes the followers;
// l.mu must be held.
func (l *eventLog) appendLocked(typ string, e Event) {
	e.Seq = len(l.events)
	e.Type = typ
	l.events = append(l.events, e)
	l.cond.Broadcast()
}

// closedLocked reports whether the log holds its terminal event; l.mu
// must be held.
func (l *eventLog) closedLocked() bool {
	return len(l.events) > 0 && State(l.events[len(l.events)-1].Type).Terminal()
}

// follow replays the log from seq 0 and then follows live appends,
// invoking fn per event in order (outside the lock), until the terminal
// event is delivered, fn errors, or ctx ends.
func (l *eventLog) follow(ctx context.Context, fn func(Event) error) error {
	stop := context.AfterFunc(ctx, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer stop()

	idx := 0
	l.mu.Lock()
	for {
		for idx < len(l.events) {
			e := l.events[idx]
			idx++
			l.mu.Unlock()
			if err := fn(e); err != nil {
				return err
			}
			l.mu.Lock()
		}
		if l.closedLocked() {
			l.mu.Unlock()
			return nil
		}
		if err := ctx.Err(); err != nil {
			l.mu.Unlock()
			return err
		}
		l.cond.Wait()
	}
}
