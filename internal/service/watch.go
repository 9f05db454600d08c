package service

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The session watch feed: GET /v1/sessions/{id}/watch answers with an SSE
// stream, written by the same sseWriter + StreamEmitter pair as
// /v1/solve/stream, that pushes the session's life as StreamEvents — an
// opening `schedule` snapshot, a `component` event the moment Replan
// finishes re-solving a dirtied component (from inside the solver fan-out,
// while other components may still be solving), an `event` per applied
// completion, and a terminal `done` (last task completed) or `closed`
// (session deleted or evicted). Each watcher's emitter numbers its own
// stream from 1. Watching replaces polling GET /v1/sessions/{id}/schedule.

// watchBuffer is each subscriber's event buffer. A consumer that falls
// this many events behind is dropped (its stream ended), never waited on:
// one slow watcher must not stall a replanning session.
const watchBuffer = 64

// watchWriteTimeout bounds each frame write to a watcher. It replaces the
// server's WriteTimeout, which a watch outlives: the watch runs as long as
// its session.
const watchWriteTimeout = 10 * time.Second

// watchSub is one subscriber's buffered event queue. Its events carry no
// sequence number: the watcher's emitter assigns one as it sends them.
type watchSub struct {
	ch chan StreamEvent
}

// watchHub fans a session's events out to its watchers. Broadcasts happen
// on request goroutines (Events and its replans' callbacks, Delete, sweep)
// — possibly while the session's own lock is held — so the hub never
// blocks: sends are non-blocking, slow subscribers are dropped.
// The hub's lock is leaf-level: nothing is called while holding it.
type watchHub struct {
	mu     sync.Mutex
	subs   map[*watchSub]struct{}
	closed bool
	// final is the terminal event (done/closed), kept so watchers that
	// arrive after the session ended still get a terminal event.
	final *StreamEvent
	// dropped aggregates slow-subscriber drops into the store counter.
	dropped *atomic.Uint64
}

func newWatchHub(dropped *atomic.Uint64) *watchHub {
	return &watchHub{subs: make(map[*watchSub]struct{}), dropped: dropped}
}

// subscribe registers a watcher. On an already-closed hub it returns
// (nil, final): the terminal event to deliver after the snapshot.
func (h *watchHub) subscribe() (*watchSub, *StreamEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, h.final
	}
	s := &watchSub{ch: make(chan StreamEvent, watchBuffer)}
	h.subs[s] = struct{}{}
	return s, nil
}

// unsubscribe removes a watcher; idempotent, safe after close.
func (h *watchHub) unsubscribe(s *watchSub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; ok {
		delete(h.subs, s)
		close(s.ch)
	}
}

// broadcast marshals data once and queues it to every subscriber. A full
// subscriber buffer means the consumer is too slow: it is dropped on the
// spot (channel closed, stream ended by its writer loop).
func (h *watchHub) broadcast(typ string, data any) {
	raw, err := json.Marshal(data)
	if err != nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	ev := StreamEvent{Type: typ, Data: raw}
	for s := range h.subs {
		select {
		case s.ch <- ev:
		default:
			delete(h.subs, s)
			close(s.ch)
			if h.dropped != nil {
				h.dropped.Add(1)
			}
		}
	}
}

// close emits the terminal event and ends every subscription. Later
// subscribers get the terminal event from subscribe. Idempotent.
func (h *watchHub) close(typ string, data any) {
	raw, err := json.Marshal(data)
	if err != nil {
		raw = nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	ev := StreamEvent{Type: typ, Data: raw}
	h.final = &ev
	for s := range h.subs {
		select {
		case s.ch <- ev:
		default:
			if h.dropped != nil {
				h.dropped.Add(1)
			}
		}
		delete(h.subs, s)
		close(s.ch)
	}
}

// watchTerminalData is the payload of `done` and `closed` events.
type watchTerminalData struct {
	SessionID string `json:"session_id"`
	// Reason: "completed", "deleted", or "evicted".
	Reason string `json:"reason"`
	// IncurredEnergy is the final spent energy (done events).
	IncurredEnergy float64 `json:"incurred_energy,omitempty"`
}

// WatchComponentData is the payload of a watch `component` event: one
// residual component re-solved by Replan, pushed the moment its solver
// finished. Task IDs are original problem IDs.
type WatchComponentData struct {
	SessionID string `json:"session_id"`
	// TaskIDs lists the re-solved component's tasks (capped at 64, like
	// every task list on the wire).
	TaskIDs []int `json:"task_ids,omitempty"`
	Tasks   int   `json:"tasks"`
	// Energy is the component's re-planned residual energy.
	Energy float64 `json:"energy"`
	// Profiles are the re-planned speed profiles, aligned with TaskIDs
	// (present only when TaskIDs is).
	Profiles [][]SegmentJSON `json:"profiles,omitempty"`
}

// serveWatch runs one watcher to completion on w as SSE: snapshot, queued
// events, terminal event, numbered from 1 by the watcher's own emitter. It
// ends early when the client goes away (ctx) or the server shuts down
// (stop).
func serveWatch(ctx context.Context, stop <-chan struct{}, w http.ResponseWriter, st *SessionStore, entry *sessionEntry) {
	sse := &sseWriter{w: w}
	rc := http.NewResponseController(w)
	em := NewStreamEmitter(func(ev StreamEvent) error {
		// Unsupported by the writer: keep streaming; should the server's
		// own deadline pass, the frame write fails and ends the watch.
		_ = rc.SetWriteDeadline(time.Now().Add(watchWriteTimeout))
		return sse.send(ev)
	})
	sub, final := entry.hub.subscribe()
	if sub != nil {
		defer entry.hub.unsubscribe(sub)
	}
	// Snapshot after subscribing, outside the hub lock: building it takes
	// the session lock, which broadcasters hold while calling into the hub
	// — holding both here would deadlock. Events queued meanwhile follow
	// the snapshot, which may already reflect them; consumers reconcile by
	// task state, which the snapshot carries in full.
	if snap, err := st.scheduleOf(entry); err == nil {
		if em.Emit(EventSchedule, snap) != nil {
			return
		}
	}
	if sub == nil {
		// Session already over: snapshot plus the recorded terminal event.
		_ = em.Emit(final.Type, final.Data) // the feed ends either way
		return
	}
	for {
		select {
		case ev, ok := <-sub.ch:
			// Closed: the hub closed (terminal already delivered through
			// the buffer) or this watcher fell behind and was dropped;
			// either way the feed is over.
			if !ok || em.Emit(ev.Type, ev.Data) != nil {
				return
			}
		case <-ctx.Done():
			return
		case <-stop:
			return
		}
	}
}

// serverShutdown ends open watches when the handler's server shuts down.
// http.Server.Shutdown waits for active handlers, and a watch handler runs
// as long as its session, so an attached watcher would otherwise hold a
// graceful drain until its deadline. The hook is registered once, on the
// first watch the handler serves.
type serverShutdown struct {
	once sync.Once
	done <-chan struct{}
}

// of returns a channel closed when the server that ctx's request arrived
// on begins Shutdown; nil (never ready) outside an http.Server.
func (s *serverShutdown) of(ctx context.Context) <-chan struct{} {
	s.once.Do(func() {
		if srv, ok := ctx.Value(http.ServerContextKey).(*http.Server); ok {
			// Shutdown reruns its hooks on every call; cancel is idempotent.
			sctx, cancel := context.WithCancel(context.Background())
			srv.RegisterOnShutdown(cancel)
			s.done = sctx.Done()
		}
	})
	return s.done
}
