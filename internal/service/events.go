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

// eventLog is the lifecycle state and append-only event log of one live
// run or twin session, with the replay-then-follow loop its SSE stream
// rides on. mu also guards the embedding type's other mutable fields;
// call init before use.
type eventLog struct {
	mu     sync.Mutex
	cond   *sync.Cond // signals event appends and state changes
	state  State
	events []Event
}

func (l *eventLog) init(state State) {
	l.cond = sync.NewCond(&l.mu)
	l.state = state
}

// appendLocked stamps and appends one event and wakes the followers;
// l.mu must be held. State changes go in before their event, so a
// follower woken by the terminal event also sees the terminal state.
func (l *eventLog) appendLocked(typ string, e Event) {
	e.Seq = len(l.events)
	e.Type = typ
	l.events = append(l.events, e)
	l.cond.Broadcast()
}

// current reads the state under the lock.
func (l *eventLog) current() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// follow replays the log from seq 0 and then follows live appends,
// invoking fn per event in order (outside the lock), until the state is
// terminal and every event is delivered, fn errors, or ctx ends.
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
		if l.state.Terminal() {
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
