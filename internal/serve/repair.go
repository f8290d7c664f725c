package serve

// Repair endpoints' server side. Both preview and apply run as jobs on the
// writer goroutine: the repair enumerator reads the live graph (which the
// writer mutates in place), so serializing with commits is what gives a
// preview its consistent point-in-time view without cloning anything.
// Applying never mutates directly either — the chosen fix is translated to
// ordinary update ops ("setattr" / "delete") and committed through the same
// commitBatch path every ingested batch takes, so the WAL, the change feed,
// the snapshot and AfterCommit all observe a normal commit.

import (
	"errors"
	"fmt"
	"strconv"

	"ngd/internal/repair"
	"ngd/internal/session"
)

// ErrUnknownFix is returned by ApplyRepair for a fix id the target's
// re-enumeration does not produce (404).
var ErrUnknownFix = errors.New("serve: unknown fix id")

// UnrepairableError is returned by ApplyRepair when the enumeration yields
// no applicable fix (422); Reason is the enumerator's explanation.
type UnrepairableError struct {
	Reason string
}

func (e *UnrepairableError) Error() string {
	return fmt.Sprintf("serve: violation unrepairable: %s", e.Reason)
}

// ApplyResult reports an applied repair (POST /repair/apply).
type ApplyResult struct {
	// Epoch is the commit epoch the fix landed in.
	Epoch int `json:"epoch"`
	// Fix is the fix as applied (re-enumerated at apply time, so Clears and
	// Introduces reflect the store the commit actually acted on).
	Fix repair.Fix `json:"fix"`
	// Remaining is |Vio(Σ, G')| after the commit.
	Remaining int `json:"remaining"`
}

// PreviewRepair enumerates ranked candidate fixes for the stored violation
// named by key, without mutating anything. A key the live store does not
// hold fails with session.ErrNoViolation (the violation was cleared by a
// later commit — the client's key is stale and it should re-list).
// Safe from any goroutine; serialized with commits.
func (s *Server) PreviewRepair(key string, opts repair.Options) (*repair.Result, error) {
	var (
		res *repair.Result
		err error
	)
	if e := s.runOnWriter(func() { res, err = s.sess.PreviewRepair(key, opts) }); e != nil {
		return nil, e
	}
	return res, err
}

// ApplyRepair re-enumerates fixes for key at the current epoch, picks fixID
// (or the top-ranked fix when fixID is empty), and commits it through the
// ordinary ingest path. Errors: session.ErrNoViolation for a stale key,
// ErrUnknownFix for an id the current enumeration lacks, *UnrepairableError
// when no fix exists, ErrClosed after Close.
func (s *Server) ApplyRepair(key, fixID string, opts repair.Options) (*ApplyResult, error) {
	var (
		out *ApplyResult
		err error
	)
	if e := s.runOnWriter(func() { out, err = s.applyRepair(key, fixID, opts) }); e != nil {
		return nil, e
	}
	return out, err
}

// applyRepair runs on the writer goroutine.
func (s *Server) applyRepair(key, fixID string, opts repair.Options) (*ApplyResult, error) {
	res, err := s.sess.PreviewRepair(key, opts)
	if err != nil {
		return nil, err
	}
	var fix repair.Fix
	if fixID == "" {
		var ok bool
		if fix, ok = res.Top(); !ok {
			return nil, &UnrepairableError{Reason: res.Reason}
		}
	} else {
		var ok bool
		if fix, ok = res.FixByID(fixID); !ok {
			if res.Unrepairable {
				return nil, &UnrepairableError{Reason: res.Reason}
			}
			return nil, fmt.Errorf("%w: %s", ErrUnknownFix, fixID)
		}
	}

	var ops []UpdateOp
	switch fix.Kind {
	case repair.KindAttr:
		attrs := make(map[string]any, len(fix.Sets))
		for _, set := range fix.Sets {
			attrs[set.Attr] = set.New
		}
		ops = append(ops, UpdateOp{
			Op:    "setattr",
			ID:    strconv.Itoa(int(fix.Node)),
			Attrs: attrs,
		})
	case repair.KindEdgeDelete:
		ops = append(ops, UpdateOp{
			Op:    "delete",
			Src:   strconv.Itoa(int(fix.Src)),
			Dst:   strconv.Itoa(int(fix.Dst)),
			Label: fix.Label,
		})
	default:
		return nil, fmt.Errorf("%w: %s has unknown kind %q", ErrUnknownFix, fix.ID, fix.Kind)
	}

	// already on the writer: commit directly through the shared batch path
	ing := ingest{ops: ops, ack: &Ack{done: make(chan struct{})}}
	s.enqueued.Add(1)
	s.queued.Add(1)
	s.commitBatch([]ingest{ing})
	<-ing.ack.Done()
	return &ApplyResult{
		Epoch:     ing.ack.Epoch(),
		Fix:       fix,
		Remaining: s.sess.Len(),
	}, nil
}

// isStaleViolation reports whether err is the stale-key error (HTTP 409).
func isStaleViolation(err error) bool {
	return errors.Is(err, session.ErrNoViolation)
}
