package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// dialWatch opens a session's SSE watch. The response headers leave with
// the opening snapshot, so the watcher is subscribed once this returns.
func dialWatch(t *testing.T, srvURL, id string) *bufio.Reader {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srvURL+"/v1/sessions/"+id+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("dial watch: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/event-stream" {
		t.Fatalf("watch: HTTP %d, content type %q", resp.StatusCode, ct)
	}
	return bufio.NewReader(resp.Body)
}

func readWatchEvent(t *testing.T, conn *bufio.Reader) StreamEvent {
	t.Helper()
	for {
		line, err := conn.ReadString('\n')
		if err != nil {
			t.Fatalf("reading watch event: %v", err)
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad watch frame %q: %v", line, err)
		}
		return ev
	}
}

// expectWatchEnd asserts that the server ends the stream: nothing but the
// blank line closing the last frame is left before EOF.
func expectWatchEnd(t *testing.T, conn *bufio.Reader) {
	t.Helper()
	rest, err := io.ReadAll(conn)
	if err != nil || strings.TrimSpace(string(rest)) != "" {
		t.Fatalf("expected the stream to end, got %q (%v)", rest, err)
	}
}

// postCompletion completes one task of a chainSessionBody session with a
// deviating duration, which triggers a residual replan.
func postCompletion(t *testing.T, srvURL, id string, task int) {
	t.Helper()
	body := fmt.Sprintf(`{"events":[{"task":%d,"actual_duration":2.0}]}`, task)
	resp, data := postJSON(t, srvURL+"/v1/sessions/"+id+"/events", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d: %s", resp.StatusCode, data)
	}
}

// TestWatchLifecycle drives a watcher through a session's whole life:
// opening schedule snapshot, a component push the moment Replan re-solves
// the dirtied residual, an applied-event record, and the terminal done.
func TestWatchLifecycle(t *testing.T) {
	srv, _ := newTestServer(t, Options{}, HTTPOptions{})
	sess := createSession(t, srv.URL, chainSessionBody)
	conn := dialWatch(t, srv.URL, sess.SessionID)

	first := readWatchEvent(t, conn)
	if first.Type != EventSchedule {
		t.Fatalf("first event %q, want schedule", first.Type)
	}
	var snap SessionScheduleResponse
	if err := json.Unmarshal(first.Data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.SessionID != sess.SessionID || snap.Remaining != 4 {
		t.Fatalf("snapshot %+v", snap)
	}

	// Complete every task with a deviating duration: each triggers a
	// residual replan, whose re-solved component must be pushed, followed
	// by the applied-event record. The last completion finishes the session.
	for task := 0; task < 4; task++ {
		body := fmt.Sprintf(`{"events":[{"task":%d,"actual_duration":2.0}]}`, task)
		resp, data := postJSON(t, srv.URL+"/v1/sessions/"+sess.SessionID+"/events", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events: HTTP %d: %s", resp.StatusCode, data)
		}
	}

	var sawComponent, sawApplied bool
	var lastSeq uint64
	for {
		ev := readWatchEvent(t, conn)
		if ev.Seq <= lastSeq {
			t.Fatalf("seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case EventComponent:
			sawComponent = true
			var data WatchComponentData
			if err := json.Unmarshal(ev.Data, &data); err != nil {
				t.Fatal(err)
			}
			if data.SessionID != sess.SessionID || data.Tasks == 0 || data.Energy <= 0 {
				t.Fatalf("component payload %+v", data)
			}
		case EventApplied:
			sawApplied = true
		case EventDone:
			var data watchTerminalData
			if err := json.Unmarshal(ev.Data, &data); err != nil {
				t.Fatal(err)
			}
			if data.Reason != "completed" || data.IncurredEnergy <= 0 {
				t.Fatalf("done payload %+v", data)
			}
			if !sawComponent || !sawApplied {
				t.Fatalf("done before component (%v) / applied (%v) events", sawComponent, sawApplied)
			}
			return
		default:
			t.Fatalf("unexpected event type %q", ev.Type)
		}
	}
}

// TestWatchClosedOnDelete: deleting a watched session pushes the terminal
// closed event and ends the connection.
func TestWatchClosedOnDelete(t *testing.T) {
	srv, _ := newTestServer(t, Options{}, HTTPOptions{})
	sess := createSession(t, srv.URL, chainSessionBody)
	conn := dialWatch(t, srv.URL, sess.SessionID)
	if ev := readWatchEvent(t, conn); ev.Type != EventSchedule {
		t.Fatalf("first event %q", ev.Type)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+sess.SessionID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ev := readWatchEvent(t, conn)
	if ev.Type != EventClosed {
		t.Fatalf("event %q, want closed", ev.Type)
	}
	var data watchTerminalData
	if err := json.Unmarshal(ev.Data, &data); err != nil {
		t.Fatal(err)
	}
	if data.Reason != "deleted" {
		t.Fatalf("reason %q, want deleted", data.Reason)
	}
	// The server then ends the stream.
	expectWatchEnd(t, conn)
}

// TestWatchSeqPerWatcher: wherever in the session's life a watcher
// attaches, its stream is numbered 1, 2, 3, … and carries exactly one
// terminal event. chainSessionBody has four tasks; every completion
// deviates, and the fourth finishes the session.
func TestWatchSeqPerWatcher(t *testing.T) {
	cases := []struct {
		name string
		// attachAfter lists, per watcher, how many completions precede its
		// attach.
		attachAfter []int
	}{
		{"attach after k events", []int{1}},
		{"attach after the last event", []int{4}},
		{"four watchers across one lifecycle", []int{0, 1, 3, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := newTestServer(t, Options{}, HTTPOptions{})
			sess := createSession(t, srv.URL, chainSessionBody)
			var conns []*bufio.Reader
			task := 0
			for _, at := range tc.attachAfter {
				for ; task < at; task++ {
					postCompletion(t, srv.URL, sess.SessionID, task)
				}
				conns = append(conns, dialWatch(t, srv.URL, sess.SessionID))
			}
			for ; task < 4; task++ {
				postCompletion(t, srv.URL, sess.SessionID, task)
			}
			for i, conn := range conns {
				for seq := uint64(1); ; seq++ {
					ev := readWatchEvent(t, conn)
					if ev.Seq != seq {
						t.Fatalf("watcher %d: event %d is %s#%d", i, seq, ev.Type, ev.Seq)
					}
					if ev.Type == EventDone || ev.Type == EventClosed {
						break
					}
				}
				expectWatchEnd(t, conn)
			}
		})
	}
}

// TestWatchOutlivesWriteTimeout: a watch lives as long as its session, so
// it must outlast the server's WriteTimeout — every frame gets its own
// write deadline.
func TestWatchOutlivesWriteTimeout(t *testing.T) {
	srv := httptest.NewUnstartedServer(NewHandler(NewEngine(Options{}), HTTPOptions{}))
	srv.Config.WriteTimeout = 300 * time.Millisecond
	srv.Start()
	t.Cleanup(srv.Close)
	sess := createSession(t, srv.URL, chainSessionBody)
	conn := dialWatch(t, srv.URL, sess.SessionID)
	if ev := readWatchEvent(t, conn); ev.Type != EventSchedule {
		t.Fatalf("first event %q, want schedule", ev.Type)
	}
	time.Sleep(700 * time.Millisecond)
	postCompletion(t, srv.URL, sess.SessionID, 0)
	if ev := readWatchEvent(t, conn); ev.Type != EventComponent && ev.Type != EventApplied {
		t.Fatalf("event %q after the write timeout, want component or event", ev.Type)
	}
}

// TestWatchDoesNotHoldShutdown: Shutdown waits for active handlers, and a
// watch handler runs as long as its session — an open watch must end when
// its server shuts down, or every graceful drain with a watcher attached
// runs into its deadline.
func TestWatchDoesNotHoldShutdown(t *testing.T) {
	srv, _ := newTestServer(t, Options{}, HTTPOptions{})
	sess := createSession(t, srv.URL, chainSessionBody)
	conn := dialWatch(t, srv.URL, sess.SessionID)
	if ev := readWatchEvent(t, conn); ev.Type != EventSchedule {
		t.Fatalf("first event %q, want schedule", ev.Type)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Config.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with an open watch: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Shutdown with an open watch took %v", elapsed)
	}
}

// TestWatchHubDropsSlowConsumer: a subscriber that stops draining its
// buffer is dropped — channel closed, drop counted — instead of blocking
// the broadcaster.
func TestWatchHubDropsSlowConsumer(t *testing.T) {
	var dropped atomic.Uint64
	hub := newWatchHub(&dropped)
	slow, _ := hub.subscribe()
	if slow == nil {
		t.Fatal("subscribe on a fresh hub failed")
	}
	start := time.Now()
	for i := 0; i < watchBuffer+8; i++ {
		hub.broadcast(EventApplied, map[string]int{"i": i})
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("broadcasts blocked on the slow consumer: %v", elapsed)
	}
	if got := dropped.Load(); got != 1 {
		t.Fatalf("dropped %d, want 1", got)
	}
	// The dropped subscriber's channel drains its buffered events, then
	// reports closed.
	n := 0
	for range slow.ch {
		n++
	}
	if n != watchBuffer {
		t.Fatalf("drained %d buffered events, want %d", n, watchBuffer)
	}
	// Fast subscribers are unaffected.
	fast, _ := hub.subscribe()
	hub.broadcast(EventApplied, map[string]int{"i": -1})
	select {
	case ev := <-fast.ch:
		if ev.Type != EventApplied {
			t.Fatalf("event %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("fast subscriber starved")
	}
	hub.unsubscribe(fast)
}

// TestWatchHubLateSubscriberGetsTerminal: a hub closed before subscription
// hands the terminal event back so late watchers still learn the outcome.
func TestWatchHubLateSubscriberGetsTerminal(t *testing.T) {
	hub := newWatchHub(nil)
	hub.close(EventClosed, watchTerminalData{SessionID: "s", Reason: "deleted"})
	sub, final := hub.subscribe()
	if sub != nil || final == nil || final.Type != EventClosed {
		t.Fatalf("late subscribe: sub=%v final=%+v", sub, final)
	}
	// close is idempotent.
	hub.close(EventDone, nil)
	if hub.final.Type != EventClosed {
		t.Fatal("second close overwrote the terminal event")
	}
}

// TestWatchStatsCountDrops: slow-watcher drops surface in SessionStats so
// operators can see consumers falling behind.
func TestWatchStatsCountDrops(t *testing.T) {
	st := NewSessionStore(NewEngine(Options{}), SessionConfig{})
	var req SessionRequest
	if err := json.Unmarshal([]byte(chainSessionBody), &req); err != nil {
		t.Fatal(err)
	}
	resp, err := st.Create(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := st.lookup(resp.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if sub, _ := entry.hub.subscribe(); sub == nil {
		t.Fatal("subscribe failed")
	}
	for i := 0; i < watchBuffer+1; i++ {
		entry.hub.broadcast(EventApplied, map[string]int{"i": i})
	}
	if got := st.Stats().WatchersDropped; got != 1 {
		t.Fatalf("WatchersDropped = %d, want 1", got)
	}
}
