package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"ngd/internal/session"
)

// The change feed turns the per-commit ΔVio⁺/ΔVio⁻ the session already
// computes into a push channel: subscribers receive exactly the reconciled
// violation delta of every committed epoch instead of polling snapshots.
//
// Delivery model:
//
//   - The writer goroutine publishes one FeedEvent per effective commit
//     (empty commits advance the epoch but carry no delta and are not
//     published; the `since` cursor is a watermark, not a sequence number,
//     so gaps are harmless).
//   - Each subscriber owns a bounded buffer. A subscriber that cannot keep
//     up is disconnected (ErrSlowConsumer) rather than allowed to stall
//     the writer or grow the buffer without bound — it reconnects with
//     `since=<last seen epoch>` and replays what it missed.
//   - Replay is served from a bounded backlog of recent events. A cursor
//     older than the backlog floor has aged out (CursorAgedError → HTTP
//     410): the subscriber must full-resync from GET /violations and
//     re-subscribe from the epoch that read was served at.

// FeedEvent is one committed epoch's reconciled violation delta, the wire
// payload of GET /feed: applying Removed then Added to the previous
// epoch's violation set yields this epoch's set exactly.
type FeedEvent struct {
	Epoch   int       `json:"epoch"`
	Added   []vioJSON `json:"added,omitempty"`
	Removed []string  `json:"removed,omitempty"` // canonical keys

	raw []byte // marshaled once at publish, shared by every subscriber
}

// JSON returns the event's marshaled form (stable across subscribers).
func (e *FeedEvent) JSON() []byte { return e.raw }

// toFeedEvent converts a session commit event to its wire form.
func toFeedEvent(ev *session.CommitEvent) *FeedEvent {
	fe := &FeedEvent{Epoch: ev.Epoch}
	if len(ev.Added) > 0 {
		fe.Added = make([]vioJSON, len(ev.Added))
		for i, v := range ev.Added {
			fe.Added[i] = toVioJSON(v.Key(), v)
		}
	}
	if len(ev.Removed) > 0 {
		fe.Removed = make([]string, len(ev.Removed))
		for i, v := range ev.Removed {
			fe.Removed[i] = v.Key()
		}
	}
	fe.raw, _ = json.Marshal(fe)
	return fe
}

// ErrSlowConsumer reports that a subscription was disconnected because its
// buffer overflowed: the subscriber fell more than FeedBuffer events behind
// the writer. Reconnect with since=<last processed epoch> to resume.
var ErrSlowConsumer = errors.New("serve: feed subscriber too slow, disconnected")

// CursorAgedError reports a since= cursor older than the feed backlog: the
// events needed to resume are gone. The subscriber must resync from a full
// GET /violations read and re-subscribe from that read's epoch.
type CursorAgedError struct {
	Since int // the cursor asked for
	Floor int // oldest epoch the backlog can still resume from
}

func (e *CursorAgedError) Error() string {
	return fmt.Sprintf("serve: feed cursor since=%d aged out (backlog floor %d); full resync required", e.Since, e.Floor)
}

// FeedSub is one live subscription. Receive events from C; when C closes,
// Err says why (nil on server shutdown or Close, ErrSlowConsumer on
// eviction). Always Close a subscription you abandon.
type FeedSub struct {
	// C delivers events in epoch order: first the backlog replay for the
	// requested cursor, then live commits as they publish.
	C <-chan *FeedEvent

	hub *feedHub
	ch  chan *FeedEvent
	err error // written before ch is closed, read after C is drained
}

// Err reports why C was closed. Valid only after C has been drained.
func (s *FeedSub) Err() error { return s.err }

// Close unsubscribes. Idempotent; safe concurrently with the hub.
func (s *FeedSub) Close() { s.hub.unsubscribe(s) }

// feedHub fans commit events out to subscribers and retains a bounded
// backlog for cursor resume. The writer goroutine is the only publisher;
// subscribe/unsubscribe may happen from any goroutine.
type feedHub struct {
	mu      sync.Mutex
	subs    map[*FeedSub]struct{}
	backlog []*FeedEvent // ascending epochs in (floor, last published]
	floor   int          // cursors < floor have aged out
	cap     int          // max backlog length
	buf     int          // per-subscriber buffer beyond replay
	closed  bool
}

func newFeedHub(floorEpoch, backlogCap, subBuf int) *feedHub {
	return &feedHub{
		subs:  make(map[*FeedSub]struct{}),
		floor: floorEpoch,
		cap:   backlogCap,
		buf:   subBuf,
	}
}

// publish appends the event to the backlog (aging out the oldest past
// capacity) and offers it to every subscriber; a subscriber whose buffer
// is full is evicted, never waited on. Called from the writer goroutine.
func (h *feedHub) publish(ev *FeedEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.backlog = append(h.backlog, ev)
	if len(h.backlog) > h.cap {
		h.floor = h.backlog[0].Epoch
		h.backlog = h.backlog[1:]
	}
	for s := range h.subs {
		select {
		case s.ch <- ev:
		default:
			s.err = ErrSlowConsumer
			close(s.ch)
			delete(h.subs, s)
		}
	}
}

// subscribe registers a subscription resuming after epoch `since`: events
// already in the backlog with Epoch > since are pre-loaded into the
// channel (so the replay can never race a concurrent publish into a gap),
// live events follow. The channel buffer is bounded by backlog capacity
// plus the per-subscriber budget.
func (h *feedHub) subscribe(since int) (*FeedSub, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if since < h.floor {
		return nil, &CursorAgedError{Since: since, Floor: h.floor}
	}
	i := sort.Search(len(h.backlog), func(i int) bool { return h.backlog[i].Epoch > since })
	replay := h.backlog[i:]
	s := &FeedSub{hub: h, ch: make(chan *FeedEvent, len(replay)+h.buf)}
	s.C = s.ch
	for _, ev := range replay {
		s.ch <- ev
	}
	h.subs[s] = struct{}{}
	return s, nil
}

func (h *feedHub) unsubscribe(s *FeedSub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; ok {
		delete(h.subs, s)
		close(s.ch)
	}
}

// close disconnects every subscriber (Err() == nil: a clean shutdown, not
// an eviction) and rejects future subscriptions. Called by Server.Close
// after the writer has exited, so it can never race a publish.
func (h *feedHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		close(s.ch)
		delete(h.subs, s)
	}
}

// stats reports the backlog range for /stats and the 410 hint.
func (h *feedHub) stats() (floor, backlog, subs int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.floor, len(h.backlog), len(h.subs)
}
