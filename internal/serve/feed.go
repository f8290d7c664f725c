package serve

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

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

// FeedEvent is one committed epoch's reconciled violation delta as the
// feed carries it. The writer publishes the session's event as is; the wire
// payload of GET /feed is rendered by the first reader that asks for it,
// once, so an event no subscriber reads is never rendered.
type FeedEvent struct {
	Epoch int
	// Commit is the session's delta: applying Removed then Added to the
	// previous epoch's violation set yields this epoch's set exactly. It is
	// shared with the store and every subscriber, so it is read-only.
	Commit *session.CommitEvent

	once     sync.Once
	raw      []byte        // the wire form, set by the first JSON call
	rendered *atomic.Int64 // the hub's count of rendered events
}

// JSON returns the event's wire form,
// {"epoch":…,"added":[violation,…],"removed":["key",…]}, with an empty
// list left out. The first call renders it, from the records the commit
// already holds; every call returns the same bytes. Safe from any
// goroutine.
func (e *FeedEvent) JSON() []byte {
	e.once.Do(func() {
		bp := bodies.Get().(*[]byte)
		b := append((*bp)[:0], `{"epoch":`...)
		b = strconv.AppendInt(b, int64(e.Epoch), 10)
		if len(e.Commit.Added) > 0 {
			b = append(b, `,"added":[`...)
			for i, k := range e.Commit.Added {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendVio(b, k)
			}
			b = append(b, ']')
		}
		if len(e.Commit.Removed) > 0 {
			b = append(b, `,"removed":[`...)
			for i, k := range e.Commit.Removed {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendString(b, k.Key)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
		e.raw = slices.Clone(b)
		*bp = b
		bodies.Put(bp)
		e.rendered.Add(1)
	})
	return e.raw
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

	rendered atomic.Int64 // events whose JSON has been rendered
}

func newFeedHub(floorEpoch, backlogCap, subBuf int) *feedHub {
	return &feedHub{
		subs:  make(map[*FeedSub]struct{}),
		floor: floorEpoch,
		cap:   backlogCap,
		buf:   subBuf,
	}
}

// event wraps a commit's delta for publish, unrendered.
func (h *feedHub) event(ev *session.CommitEvent) *FeedEvent {
	return &FeedEvent{Epoch: ev.Epoch, Commit: ev, rendered: &h.rendered}
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
