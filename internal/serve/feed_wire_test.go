package serve

// The feed renders an event's wire form lazily, on the first reader. The
// specification is the eager rendering the writer used to do at publish:
// every reader — a live SSE stream, a long-poll loop, a late since= replay
// and Go subscribers racing the writer — must see its bytes exactly.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ngd/internal/gen"
	"ngd/internal/session"
)

// eagerFeedEvent and eagerFeedJSON are the feed's wire rendering as the
// writer did it at publish: every key recomputed, one json.Marshal.
type eagerFeedEvent struct {
	Epoch   int       `json:"epoch"`
	Added   []vioJSON `json:"added,omitempty"`
	Removed []string  `json:"removed,omitempty"` // canonical keys
}

func eagerFeedJSON(ev *session.CommitEvent) []byte {
	fe := &eagerFeedEvent{Epoch: ev.Epoch}
	if len(ev.Added) > 0 {
		fe.Added = make([]vioJSON, len(ev.Added))
		for i, k := range ev.Added {
			fe.Added[i] = toVioJSON(k.Violation.Key(), k.Violation)
		}
	}
	if len(ev.Removed) > 0 {
		fe.Removed = make([]string, len(ev.Removed))
		for i, k := range ev.Removed {
			fe.Removed[i] = k.Violation.Key()
		}
	}
	raw, _ := json.Marshal(fe)
	return raw
}

// readSSE collects the data: line of every commit frame of an SSE stream
// by its id:, until the stream ends or stop returns true.
func readSSE(t *testing.T, body *bufio.Reader, got map[int][]byte, stop func() bool) {
	id := -1
	for !stop() {
		line, err := body.ReadString('\n')
		if err != nil {
			return
		}
		switch {
		case strings.HasPrefix(line, "id: "):
			if id, err = strconv.Atoi(strings.TrimSpace(line[4:])); err != nil {
				t.Errorf("frame id %q", line)
			}
		case strings.HasPrefix(line, "data: "):
			got[id] = []byte(strings.TrimSuffix(line[6:], "\n"))
		}
	}
}

// openSSE subscribes to GET /feed with the given query and returns the
// stream past its greeting.
func openSSE(t *testing.T, ctx context.Context, srv *httptest.Server, query string) *bufio.Reader {
	t.Helper()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/feed"+query, nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != 200 {
		t.Fatalf("feed%s: code %d", query, resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	if line, err := rd.ReadString('\n'); err != nil || !strings.HasPrefix(line, ": connected epoch=") {
		t.Fatalf("greeting = %q, %v", line, err)
	}
	return rd
}

func TestFeedWireMatchesEagerRendering(t *testing.T) {
	w := gen.Workloads()[0]
	ds := w.Dataset()
	// the stream is generated up front: the writer owns the graph once the
	// server runs, and the generator adds the arriving nodes to it
	const batches = 12
	ops := make([][]UpdateOp, batches)
	for b := range ops {
		for _, op := range w.Delta(ds, b).Ops {
			kind := "delete"
			if op.Insert {
				kind = "insert"
			}
			ops[b] = append(ops[b], UpdateOp{
				Op: kind, Src: fmt.Sprint(op.Src), Dst: fmt.Sprint(op.Dst),
				Label: ds.G.Symbols().LabelName(op.Label),
			})
		}
	}
	s := New(session.New(ds.G, w.Sigma(), session.Options{}), Options{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	epoch0 := s.Snapshot().Epoch
	commit := func(ops []UpdateOp) {
		ack, err := s.Enqueue(ops)
		if err != nil {
			t.Fatal(err)
		}
		<-ack.Done()
	}

	// the reference subscriber never renders: it keeps every event for the
	// eager rendering to be computed from
	ref, err := s.Subscribe(epoch0)
	if err != nil {
		t.Fatal(err)
	}

	// the first half commits with nobody reading
	for _, b := range ops[:batches/2] {
		commit(b)
	}
	if n := s.Stats().FeedRendered; n != 0 {
		t.Fatalf("%d events rendered with no reader", n)
	}

	// the second half races two Go subscribers (each replays the first
	// half from the backlog, then reads live) and a live SSE stream
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mid := s.Snapshot().Epoch // the live stream's cursor
	live := map[int][]byte{}
	liveDone := make(chan struct{})
	liveStream := openSSE(t, ctx, srv, "")
	go func() {
		defer close(liveDone)
		readSSE(t, liveStream, live, func() bool { return false })
	}()
	var wg sync.WaitGroup
	readers := make([]map[int][]byte, 2)
	for i := range readers {
		sub, err := s.Subscribe(epoch0)
		if err != nil {
			t.Fatal(err)
		}
		readers[i] = map[int][]byte{}
		wg.Add(1)
		go func(got map[int][]byte) {
			defer wg.Done()
			for ev := range sub.C {
				got[ev.Epoch] = ev.JSON()
			}
		}(readers[i])
	}
	for _, b := range ops[batches/2:] {
		commit(b)
	}

	// the reference: every published event, rendered eagerly
	want := map[int][]byte{}
	var epochs []int
	for len(ref.C) > 0 {
		ev := <-ref.C
		want[ev.Epoch] = eagerFeedJSON(ev.Commit)
		epochs = append(epochs, ev.Epoch)
	}
	ref.Close()
	if len(epochs) < 4 {
		t.Fatalf("only %d effective commits in %d batches", len(epochs), batches)
	}
	last := epochs[len(epochs)-1]
	check := func(who string, got map[int][]byte, from int) {
		t.Helper()
		n := 0
		for _, e := range epochs {
			if e <= from {
				continue
			}
			n++
			if !bytes.Equal(got[e], want[e]) {
				t.Fatalf("%s, epoch %d:\ngot  %s\nwant %s", who, e, got[e], want[e])
			}
		}
		if len(got) != n {
			t.Fatalf("%s got %d events, want %d", who, len(got), n)
		}
	}

	// a long-poll loop from the start
	polled := map[int][]byte{}
	for since := epoch0; since < last; {
		resp, err := srv.Client().Get(fmt.Sprintf("%s/feed?poll=1&since=%d", srv.URL, since))
		if err != nil {
			t.Fatal(err)
		}
		var page struct {
			Events    []json.RawMessage `json:"events"`
			NextSince int               `json:"next_since"`
		}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, raw := range page.Events {
			var e struct{ Epoch int }
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatal(err)
			}
			polled[e.Epoch] = raw
		}
		since = page.NextSince
	}
	check("long-poll", polled, epoch0)

	// a late SSE subscriber replaying the whole backlog
	late := map[int][]byte{}
	readSSE(t, openSSE(t, ctx, srv, fmt.Sprintf("?since=%d", epoch0)), late, func() bool { return len(late) == len(epochs) })
	check("late since= stream", late, epoch0)

	if n := s.Stats().FeedRendered; n != int64(len(epochs)) {
		t.Fatalf("%d events rendered, want each of the %d once", n, len(epochs))
	}
	s.Close() // ends the live stream and the Go subscribers' channels
	wg.Wait()
	<-liveDone
	for i, got := range readers {
		check(fmt.Sprintf("Go subscriber %d", i), got, epoch0)
	}
	check("live stream", live, mid)
	t.Logf("%d events over %d batches, every reader byte-identical to the eager rendering", len(epochs), batches)
}
