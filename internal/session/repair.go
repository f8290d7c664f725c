package session

import (
	"errors"
	"fmt"

	"ngd/internal/repair"
)

// ErrNoViolation is returned by PreviewRepair for a key the live store does
// not hold. The serving layer maps it to 409: a client asked to repair a
// violation that a later commit already cleared (or that never existed), so
// its view of the store is stale and it should re-list.
var ErrNoViolation = errors.New("session: violation not in store")

// PreviewRepair enumerates the ranked candidate fixes for the stored
// violation named by key. The preview never mutates the session: the graph,
// the violation store and the snapshot epoch are exactly as before the call
// (candidate effects are staged on forks of the graph and read off the
// store by the commit's own reconciliations, with the session's program
// and searchers). Applying a chosen fix is a separate, ordinary
// commit — see the serving layer's /repair/apply.
//
// Callers are responsible for serializing PreviewRepair with Commit (the
// serving layer runs both on its single writer goroutine); the session
// itself is not concurrency-safe.
func (s *Session) PreviewRepair(key string, opts repair.Options) (*repair.Result, error) {
	v, ok := s.snap.Get(key)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoViolation, key)
	}
	return repair.Enumerate(s.g, s.rules, s.search, s.snap, v, opts), nil
}
