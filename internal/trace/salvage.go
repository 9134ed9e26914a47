package trace

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Degraded reads: a field deployment can hand the store segments damaged
// by full disks, torn writes, or media corruption. The strict read path
// (StreamSession) rejects a damaged session outright; the salvage path
// recovers every complete record up to each segment's damage point and
// reports exactly what was skipped, so one bad segment tail no longer
// costs the whole session. Fsck is the read-only scan of the same
// machinery, classifying the damage across all sessions.

// SegmentSalvage is the per-segment outcome of a salvage or fsck pass.
type SegmentSalvage struct {
	Name           string // segment file name (or "" for plain readers)
	Events         int    // complete records recovered
	BytesRecovered int64  // magic + complete records, the valid prefix
	BytesDropped   int64  // bytes past the damage point (0 when clean)
	Damaged        bool
	Cause          string // damage class: truncated, corrupt, bad-block, bad-footer, bad-magic, unordered
	Err            error  // the underlying decode error (nil when clean)
}

// SalvageReport aggregates a salvage pass over a session.
type SalvageReport struct {
	Session  string
	Segments []SegmentSalvage
}

// Events reports the total records recovered across segments.
func (r *SalvageReport) Events() int {
	n := 0
	for i := range r.Segments {
		n += r.Segments[i].Events
	}
	return n
}

// BytesDropped reports the total bytes skipped past damage points.
func (r *SalvageReport) BytesDropped() int64 {
	var n int64
	for i := range r.Segments {
		n += r.Segments[i].BytesDropped
	}
	return n
}

// Damaged reports how many segments were damaged.
func (r *SalvageReport) Damaged() int {
	n := 0
	for i := range r.Segments {
		if r.Segments[i].Damaged {
			n++
		}
	}
	return n
}

// String renders the report one line per segment plus a summary.
func (r *SalvageReport) String() string {
	var b strings.Builder
	for i := range r.Segments {
		s := &r.Segments[i]
		if s.Damaged {
			fmt.Fprintf(&b, "  %-28s %8d events  %10d bytes ok  %8d dropped  [%s]\n",
				s.Name, s.Events, s.BytesRecovered, s.BytesDropped, s.Cause)
		} else {
			fmt.Fprintf(&b, "  %-28s %8d events  %10d bytes ok\n",
				s.Name, s.Events, s.BytesRecovered)
		}
	}
	fmt.Fprintf(&b, "  total: %d events recovered, %d/%d segments damaged, %d bytes dropped\n",
		r.Events(), r.Damaged(), len(r.Segments), r.BytesDropped())
	return b.String()
}

// classifyDamage maps a FileCursor decode error onto its damage class.
func classifyDamage(err error) string {
	switch {
	case errors.Is(err, ErrBadMagic):
		return "bad-magic"
	case errors.Is(err, ErrUnordered):
		return "unordered"
	case errors.Is(err, ErrBadFooter):
		return "bad-footer"
	case errors.Is(err, ErrBadBlock):
		return "bad-block"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	default:
		return "error"
	}
}

// SalvageCursor adapts a FileCursor into a cursor that never fails: the
// first decode error ends the stream cleanly instead, and is retained as
// the damage cause. Everything the underlying cursor yields before the
// damage point — complete records only, by construction — passes through
// unchanged, so a k-way merge over salvage cursors degrades per segment
// instead of failing the whole session.
type SalvageCursor struct {
	fc      *FileCursor
	events  int
	damaged bool
	cause   error
}

// NewSalvageCursor wraps fc. The caller keeps ownership of fc (Close it
// as usual).
func NewSalvageCursor(fc *FileCursor) *SalvageCursor {
	return &SalvageCursor{fc: fc}
}

// Next implements Cursor; it never returns an error.
func (c *SalvageCursor) Next() (Event, bool, error) {
	if c.damaged {
		return Event{}, false, nil
	}
	ev, ok, err := c.fc.Next()
	if err != nil {
		c.damaged = true
		c.cause = err
		return Event{}, false, nil
	}
	if ok {
		c.events++
	}
	return ev, ok, nil
}

// Events reports how many records passed through.
func (c *SalvageCursor) Events() int { return c.events }

// Damage reports the retained decode error, nil when the stream was
// clean (so far).
func (c *SalvageCursor) Damage() error { return c.cause }

// report summarizes the cursor after its stream ended. size is the total
// byte length of the underlying stream when known, else negative (bytes
// dropped then stay 0).
func (c *SalvageCursor) report(name string, size int64) SegmentSalvage {
	s := SegmentSalvage{
		Name:           name,
		Events:         c.events,
		BytesRecovered: c.fc.BytesConsumed(),
		Damaged:        c.cause != nil,
		Err:            c.cause,
	}
	if c.cause != nil {
		s.Cause = classifyDamage(c.cause)
		if size >= 0 {
			s.BytesDropped = size - c.fc.BytesConsumed()
		}
	}
	return s
}

// SalvageReader streams every complete record of a possibly damaged
// segment stream into sink and reports what was recovered. It never
// fails on damage: a truncated or corrupt tail ends the stream at the
// last complete record. sink may be nil to scan without consuming.
func SalvageReader(r io.Reader, sink Sink) SegmentSalvage {
	fc := NewFileCursor(r)
	sc := NewSalvageCursor(fc)
	for {
		ev, ok, _ := sc.Next()
		if !ok {
			break
		}
		if sink != nil {
			sink.Observe(ev)
		}
	}
	return sc.report("", -1)
}

// SalvageSession streams everything recoverable from a session into sink
// — the degraded-mode counterpart of StreamSession. Each segment
// contributes every complete record up to its damage point (if any) and
// is then treated as exhausted, so the k-way merge completes even when
// segments are truncated or corrupt. The report says, per segment, how
// many events were recovered, how many bytes were dropped, and why.
// Segments open lazily in time order, as in StreamSession, but a
// segment's footer sets its admission bound only when its first block
// agrees with it; any other segment opens when the merge starts.
//
// The merged stream stays (Time, Seq)-ordered: salvage drops only
// suffixes of individually sorted segments, and a sorted prefix merges
// like any other sorted stream. sink may be nil to scan without
// consuming.
func (s *Store) SalvageSession(session string, sink Sink) (*SalvageReport, error) {
	names, err := s.sessionSegments(session)
	if err != nil {
		return nil, err
	}
	a := &admission{dir: s.dir}
	defer a.closeAll()
	curs := make([]*SalvageCursor, len(names))
	sizes := make([]int64, len(names))
	for i, name := range names {
		bound, f := s.footerBound(name, a, true)
		a.add(name, bound, f, func(f *os.File) (Cursor, func()) {
			fc := s.cursorOn(f)
			curs[i], sizes[i] = NewSalvageCursor(fc), fileSize(f)
			return curs[i], func() { fc.Close() }
		})
	}
	if sink == nil {
		sink = SinkFunc(func(Event) {})
	}
	// Salvage cursors never error and their bounds are checked, so Run
	// fails only to open a segment.
	if err := a.run(sink); err != nil {
		return nil, err
	}
	rep := &SalvageReport{Session: session}
	for i, c := range curs {
		rep.Segments = append(rep.Segments, c.report(names[i], sizes[i]))
	}
	return rep, nil
}

// fileSize reports f's size, or -1 when it cannot be read (bytes dropped
// then stay 0).
func fileSize(f *os.File) int64 {
	fi, err := f.Stat()
	if err != nil {
		return -1
	}
	return fi.Size()
}

// FsckReport classifies damage across every session of a store.
type FsckReport struct {
	Sessions []SalvageReport
}

// Damaged reports the total damaged segments across sessions.
func (r *FsckReport) Damaged() int {
	n := 0
	for i := range r.Sessions {
		n += r.Sessions[i].Damaged()
	}
	return n
}

// Clean reports whether every segment of every session decoded fully.
func (r *FsckReport) Clean() bool { return r.Damaged() == 0 }

// String renders one block per session.
func (r *FsckReport) String() string {
	var b strings.Builder
	for i := range r.Sessions {
		fmt.Fprintf(&b, "session %s:\n%s", r.Sessions[i].Session, r.Sessions[i].String())
	}
	return b.String()
}

// Fsck scans every segment of every session, classifying damage without
// consuming events: the health check a long-running tracer (or an
// operator) runs over a store that survived a crash or a bad disk.
func (s *Store) Fsck() (*FsckReport, error) {
	sessions, err := s.Sessions()
	if err != nil {
		return nil, err
	}
	rep := &FsckReport{}
	for _, session := range sessions {
		// Scanning per segment (not merged) keeps fsck independent of
		// cross-segment ordering; each segment is judged on its own bytes,
		// with only that segment's file open.
		names, err := s.sessionSegments(session)
		if err != nil {
			return nil, err
		}
		sr := SalvageReport{Session: session}
		for _, name := range names {
			f, err := os.Open(filepath.Join(s.dir, name))
			if err != nil {
				return nil, err
			}
			fc := s.cursorOn(f)
			size, c := fileSize(f), NewSalvageCursor(fc)
			for {
				if _, ok, _ := c.Next(); !ok {
					break
				}
			}
			sr.Segments = append(sr.Segments, c.report(name, size))
			fc.Close()
		}
		rep.Sessions = append(rep.Sessions, sr)
	}
	return rep, nil
}
