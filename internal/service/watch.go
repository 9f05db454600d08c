package service

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ws"
)

// The session watch feed: GET /v1/sessions/{id}/watch upgrades to
// WebSocket and pushes the session's life as StreamEvents — an opening
// `schedule` snapshot, a `component` event the moment Replan finishes
// re-solving a dirtied component (from inside the solver fan-out, while
// other components may still be solving), an `event` per applied
// completion, and a terminal `done` (last task completed) or `closed`
// (session deleted or evicted). Watching replaces polling
// GET /v1/sessions/{id}/schedule.

// watchBuffer is each subscriber's event buffer. A consumer that falls
// this many events behind is dropped (its connection closed), never
// waited on: one slow watcher must not stall a replanning session.
const watchBuffer = 64

// watchWriteTimeout bounds each frame write to a watcher.
const watchWriteTimeout = 10 * time.Second

// watchSub is one subscriber's buffered event queue.
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
	seq    uint64
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

// nextSeq reserves the next sequence number — used for the snapshot event,
// which is built outside the hub lock (it needs the session's lock, held
// by broadcasters) and may therefore interleave with queued events.
func (h *watchHub) nextSeq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	return h.seq
}

// broadcast marshals data once and queues it to every subscriber. A full
// subscriber buffer means the consumer is too slow: it is dropped on the
// spot (channel closed, connection torn down by its writer loop).
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
	h.seq++
	ev := StreamEvent{Seq: h.seq, Type: typ, Data: raw}
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
	h.seq++
	ev := StreamEvent{Seq: h.seq, Type: typ, Data: raw}
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

// serveWatch runs one watcher connection to completion: snapshot, queued
// events, terminal event. It owns conn and closes it on every path. The
// reader goroutine consumes client frames (pongs, close) and flags
// disconnects; the writer loop is the only frame producer.
func serveWatch(conn *ws.Conn, st *SessionStore, entry *sessionEntry) {
	defer conn.Close()
	hub := entry.hub
	sub, final := hub.subscribe()

	// Snapshot outside the hub lock: building it takes the session lock,
	// which broadcasters hold while calling into the hub — holding both
	// here would deadlock. The cost is only that the snapshot's sequence
	// number may interleave with concurrently queued events; consumers
	// reconcile by task state, which the snapshot carries in full.
	writeEvent := func(ev StreamEvent) error {
		body, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		conn.SetWriteDeadline(time.Now().Add(watchWriteTimeout))
		return conn.WriteText(body)
	}
	if snap, err := st.scheduleOf(entry); err == nil {
		raw, err := json.Marshal(snap)
		if err == nil {
			if writeEvent(StreamEvent{Seq: hub.nextSeq(), Type: EventSchedule, Data: raw}) != nil {
				if sub != nil {
					hub.unsubscribe(sub)
				}
				return
			}
		}
	}
	if sub == nil {
		// Session already over: snapshot plus the recorded terminal event.
		if final != nil {
			writeEvent(*final)
		}
		conn.WriteClose(1000)
		return
	}
	defer hub.unsubscribe(sub)

	clientGone := make(chan struct{})
	go func() {
		defer close(clientGone)
		for {
			if _, err := conn.ReadMessage(); err != nil {
				return
			}
		}
	}()
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				// Hub closed (terminal already delivered through the buffer)
				// or this watcher was dropped for falling behind; either way
				// the feed is over.
				conn.WriteClose(1000)
				return
			}
			if err := writeEvent(ev); err != nil {
				return
			}
		case <-clientGone:
			return
		}
	}
}
