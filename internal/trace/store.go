package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/tracesynth/rostracer/internal/sim"
)

// Store is the "trace database" of Fig. 2: a directory of trace segments
// grouped into sessions. Segment files are named
// <session>-<segment>.rtrc and use the binary codec.
//
// Persistence is streaming on both sides: WriteSegment returns a
// SegmentWriter sink that appends records as they are observed, and
// StreamSession k-way merges FileCursors over all segments of a session
// straight into any sink. SaveSegment and LoadSession are the batch
// wrappers over those paths.
type Store struct {
	dir string

	// Format selects the segment format the write paths (WriteSegment,
	// SaveSegment) produce; the zero value means the default, v2. Read
	// paths are always version-aware — they sniff each segment's magic —
	// so a store can hold a mix of v1 and v2 segments.
	Format Format

	// BlockRecords bounds records per v2 block (0 selects the default).
	// Smaller blocks index finer (narrow filtered reads decode less);
	// larger blocks compress better (the table and per-block index entry
	// amortize over more records).
	BlockRecords int

	// Parallelism bounds the decode workers the parallel read paths use:
	// StreamSession wraps each segment cursor in a prefetching decoder and
	// QuerySession decodes selected v2 blocks across a worker pool. 0
	// selects GOMAXPROCS; 1 selects the sequential paths. Output is
	// byte-identical at every setting — merge order is (Time, Seq) and
	// blocks decode in index order, so parallelism is invisible except in
	// wall-clock time.
	Parallelism int

	// AsyncEncode moves v2 block encoding and writing onto a background
	// goroutine per SegmentWriter (double-buffered: one block fills while
	// the previous one compresses and writes), so delta/varint encode
	// leaves the drain thread. Segment bytes are identical to the
	// synchronous path; errors still surface through the writer's sticky
	// error, at the latest at Close, which drains the encoder.
	AsyncEncode bool

	// WrapWriter, when set, wraps the file every WriteSegment opens; the
	// segment writer's bytes flow through the returned writer (the file
	// itself is still closed by Close). WrapReader does the same for every
	// segment file the read paths open. Both exist for deterministic fault
	// injection — wrapping a segment in a faultinject.Writer/Reader makes
	// disk-full, short-write, and corruption scenarios scriptable — and
	// are nil in production, where the open paths use the files directly.
	WrapWriter func(name string, f io.Writer) io.Writer
	WrapReader func(name string, f io.Reader) io.Reader
}

// NewStore opens (creating if needed) a trace database at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: creating store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// ResolveParallelism reports the decode-worker count the parallel read
// paths will use: Parallelism, with 0 resolved to GOMAXPROCS.
func (s *Store) ResolveParallelism() int {
	p := s.Parallelism
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	return p
}

func (s *Store) segPath(session string, segment int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%04d.rtrc", session, segment))
}

// WriteSegment creates one segment file of a session and returns a
// SegmentWriter sink over it. Events append to disk as they are
// observed — a periodic drain can stream rings -> merge -> segment
// without ever materializing the segment — and Close finalizes the file.
func (s *Store) WriteSegment(session string, segment int) (*SegmentWriter, error) {
	path := s.segPath(session, segment)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var w io.Writer = f
	if s.WrapWriter != nil {
		w = s.WrapWriter(filepath.Base(path), f)
	}
	sw := NewSegmentWriterFormat(w, s.Format, s.BlockRecords)
	sw.c = f
	sw.path = path
	if s.AsyncEncode {
		sw.EnableAsync()
	}
	return sw, nil
}

// SaveSegment writes one trace segment for a session: the batch wrapper
// over WriteSegment. Store segments are (Time, Seq)-sorted on disk —
// the streaming read path merges, it cannot re-sort — so an unsorted
// trace is normalized here at write time (the historical LoadSession
// sorted at read time, with the same observable result).
func (s *Store) SaveSegment(session string, segment int, t *Trace) error {
	if !t.sortedByTime() {
		t = t.Clone()
		t.SortByTime()
	}
	sw, err := s.WriteSegment(session, segment)
	if err != nil {
		return err
	}
	for _, e := range t.Events {
		sw.Observe(e)
	}
	return sw.Close()
}

// LoadSegment reads one trace segment of either format through the
// version-aware streaming cursor. Decode errors name the segment file
// and the detected format version. Unlike the session read paths this
// is non-strict: a single segment loaded in isolation has no merge to
// corrupt, so arbitrary record order round-trips (as it always has
// through ReadBinary).
func (s *Store) LoadSegment(session string, segment int) (*Trace, error) {
	f, err := os.Open(s.segPath(session, segment))
	if err != nil {
		return nil, err
	}
	fc := s.cursorOn(f)
	fc.strict = false
	defer fc.Close()
	out := &Trace{}
	for {
		e, ok, err := fc.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out.Events = append(out.Events, e)
	}
}

// Sessions lists distinct session names in the store, sorted.
func (s *Store) Sessions() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, ent := range entries {
		name := ent.Name()
		if filepath.Ext(name) != ".rtrc" {
			continue
		}
		// The session is everything before the numeric segment suffix.
		// Indexes are %04d-formatted but parsed, not sized: segment 10000
		// and beyond widen the suffix.
		base := name[:len(name)-len(".rtrc")]
		if i := strings.LastIndexByte(base, '-'); i > 0 {
			if _, ok := segmentIndex(name, base[:i]); ok {
				seen[base[:i]] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// segmentIndex parses the numeric segment index out of a segment file
// name (<session>-<index>.rtrc). ok is false for names whose suffix is
// not numeric.
func segmentIndex(name, session string) (int, bool) {
	digits := name[len(session)+1 : len(name)-len(".rtrc")]
	if digits == "" {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// segmentNames lists the segment files of a session in segment order.
// Order is by parsed numeric index, not lexicographic: zero-padding runs
// out at segment 10000 (%04d), where a filename sort would merge
// "10000" before "9999" and break tie-resolution to the earlier
// segment. Non-numeric suffixes (never produced by segPath) sort after
// all numeric ones, by name.
func (s *Store) segmentNames(session string) ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	prefix := session + "-"
	var names []string
	for _, ent := range entries {
		name := ent.Name()
		if filepath.Ext(name) != ".rtrc" || len(name) < len(prefix) || name[:len(prefix)] != prefix {
			continue
		}
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ni, oki := segmentIndex(names[i], session)
		nj, okj := segmentIndex(names[j], session)
		switch {
		case oki && okj:
			if ni != nj {
				return ni < nj
			}
			return names[i] < names[j]
		case oki:
			return true
		case okj:
			return false
		default:
			return names[i] < names[j]
		}
	})
	return names, nil
}

// cursorOn wraps an open segment file in a strict FileCursor that owns
// it — reading through WrapReader when set. Decode errors name the
// segment, and records out of (Time, Seq) order are rejected: a session
// merge cannot re-sort.
func (s *Store) cursorOn(f *os.File) *FileCursor {
	name := filepath.Base(f.Name())
	var r io.Reader = f
	if s.WrapReader != nil {
		r = s.WrapReader(name, f)
	}
	fc := NewFileCursor(r)
	fc.c, fc.name, fc.strict = f, name, true
	return fc
}

// sessionSegments lists a session's segment files in segment order and
// fails when there are none.
func (s *Store) sessionSegments(session string) ([]string, error) {
	names, err := s.segmentNames(session)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("trace: session %q has no segments", session)
	}
	return names, nil
}

// footerBound returns a lower bound on the time of a segment's first
// event: the first block's MinTime in its v2 footer index, read with the
// file open only for the positioned reads of magic, trailer and footer.
// Segments without a valid footer — v1, a crashed writer, damage — and
// every segment of a WrapReader store get minSimTime: the merge opens
// them at its start, and their strict read reports any damage exactly as
// before. Such a segment's file stays open and is returned, tracked by
// a, for the merge to read from the start. With verify (salvage, which
// must not trust an index it has not checked) the bound stands only when
// the first block decodes to exactly the footer's first entry.
func (s *Store) footerBound(name string, a *admission, verify bool) (sim.Time, *os.File) {
	if s.WrapReader != nil {
		return minSimTime, nil
	}
	f, err := a.probe(name)
	if err != nil {
		return minSimTime, nil // the open at admission reports it
	}
	if bound := v2Bound(f, verify); bound != minSimTime {
		a.drop(f)
		return bound, nil
	}
	return minSimTime, f
}

// v2Bound is footerBound's read of an open segment.
func v2Bound(f *os.File, verify bool) sim.Time {
	var magic [len(binMagic2)]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil || string(magic[:]) != binMagic2 {
		return minSimTime
	}
	size := fileSize(f) // -1 reads as no footer
	blocks, ok, err := readFooterAt(f, size)
	if err != nil || !ok || len(blocks) == 0 {
		return minSimTime
	}
	if verify {
		fc := NewFileCursor(io.NewSectionReader(f, 0, size))
		if _, ok, err := fc.Next(); err != nil || !ok || len(fc.BlockIndex()) == 0 || fc.BlockIndex()[0] != blocks[0] {
			return minSimTime
		}
	}
	return blocks[0].MinTime
}

// StreamSession k-way merges all segments of a session into sink in
// (Time, Seq) order. Records decode one at a time off each open segment
// file and the merge holds one event per open segment; a v2 segment
// opens only when the merge reaches its first block and closes once
// exhausted (see admission), so a session of any size streams into a
// model builder (or any other sink) with memory and open files bounded
// by the segments whose time ranges overlap, not by the segment count.
// Segments must be internally (Time, Seq)-sorted — every
// tracer drain writes them so — since a stream cannot be re-sorted;
// ties across segments resolve to the earlier segment, exactly as
// LoadSession's historical Merge over materialized segments resolved
// them to the earlier input trace.
//
// With Parallelism resolved above 1 (the default: GOMAXPROCS) and more
// than one segment, each open segment cursor runs behind a prefetching
// decode goroutine (PrefetchCursor), and the next Parallelism segments
// in time order open ahead of admission, so their decode proceeds while
// the merge consumes heads. The merge itself is unchanged and ties still
// resolve to the earlier segment, so the output stream is byte-identical
// to the sequential path.
func (s *Store) StreamSession(session string, sink Sink) error {
	names, err := s.sessionSegments(session)
	if err != nil {
		return err
	}
	a := &admission{dir: s.dir}
	defer a.closeAll()
	prefetch := s.ResolveParallelism() > 1 && len(names) > 1
	if prefetch {
		a.readAhead = s.ResolveParallelism()
	}
	cursor := func(f *os.File) (Cursor, func()) {
		fc := s.cursorOn(f)
		if !prefetch {
			return fc, func() { fc.Close() }
		}
		// The prefetch goroutine references the file cursor; stop it
		// before closing the file underneath.
		pc := NewPrefetchCursor(fc)
		return pc, func() { pc.Close(); fc.Close() }
	}
	for _, name := range names {
		bound, f := s.footerBound(name, a, false)
		a.add(name, bound, f, cursor)
	}
	return a.run(sink)
}

// LoadSession merges all segments of a session into one sorted trace:
// the Collector wrapper over StreamSession. Sortedness is guaranteed at
// write time (SaveSegment normalizes, drains emit in order) and
// validated at read time by the strict cursors, so the result needs no
// re-sort — an out-of-order segment file fails loudly instead.
func (s *Store) LoadSession(session string) (*Trace, error) {
	var col Collector
	if err := s.StreamSession(session, &col); err != nil {
		return nil, err
	}
	return &col.Trace, nil
}

// minSimTime bounds a segment whose first event time is unknown: the
// merge admits it at its start.
const minSimTime = sim.Time(-1 << 63)

// segSource is one segment of a session merge.
type segSource struct {
	name   string
	bound  sim.Time                        // no event of the segment precedes it
	cursor func(*os.File) (Cursor, func()) // reads the open file; release closes both

	cur     Cursor // non-nil while open
	release func()
}

// admission feeds a MergeStream a session's segments lazily, so the
// files open at once are the segments whose time ranges overlap, plus
// read-ahead, however many segments the session has. Opening them all up
// front capped a session at the process fd limit and, because Linux
// grows a process's descriptor table at 64 and 256 open files (in a
// multi-threaded process each growth waits out an RCU grace period),
// cost tens of milliseconds per read of a 300-segment session.
//
// Before the merge emits a head at time T it admits every pending
// segment whose bound is <= T — and, when the heap is empty, the next
// one in bound order. No event of a pending segment precedes its bound,
// so the merged stream is exactly the eager merge's: heap slots are
// segment order, so (Time, Seq) ties still resolve to the earlier
// segment. A segment whose first record does precede its bound has a
// footer that disagrees with its data, and fails the read as
// ErrBadFooter. Exhausted segments are released at once. Every open and
// close happens on the merge thread.
type admission struct {
	dir       string      // the store directory
	segs      []segSource // by slot: segment order
	order     []int       // slots sorted by (bound, slot)
	next      int         // order[next:] awaits admission
	ahead     int         // order[next:ahead] opened ahead of admission
	readAhead int         // how many segments to open ahead of admission

	open, peak int // segment files open now, and at most
}

// add queues a segment. f, when not nil, is the segment's file, already
// open from a probe: the segment then counts as opened ahead.
func (a *admission) add(name string, bound sim.Time, f *os.File, cursor func(*os.File) (Cursor, func())) {
	sg := segSource{name: name, bound: bound, cursor: cursor}
	if f != nil {
		sg.cur, sg.release = cursor(f)
	}
	a.segs = append(a.segs, sg)
}

// probe opens a segment file to read its index; the caller passes it
// on to add or closes it with drop.
func (a *admission) probe(name string) (*os.File, error) {
	f, err := os.Open(filepath.Join(a.dir, name))
	if err == nil {
		a.track(1)
	}
	return f, err
}

func (a *admission) drop(f *os.File) {
	f.Close()
	a.track(-1)
}

// track counts segment files opened (delta 1) and closed (delta -1).
func (a *admission) track(delta int) {
	a.open += delta
	a.peak = max(a.peak, a.open)
}

// run merges every added segment into sink. The caller must closeAll
// afterwards, also on error.
func (a *admission) run(sink Sink) error {
	a.order = make([]int, len(a.segs))
	for i := range a.order {
		a.order[i] = i
	}
	sort.SliceStable(a.order, func(i, j int) bool {
		return a.segs[a.order[i]].bound < a.segs[a.order[j]].bound
	})
	return (&MergeStream{curs: make([]Cursor, len(a.segs)), adm: a}).Run(sink)
}

// admit is MergeStream.Run's hook before each emission.
func (a *admission) admit(m *MergeStream) error {
	for a.next < len(a.order) {
		slot := a.order[a.next]
		sg := &a.segs[slot]
		if len(m.heap) > 0 && sg.bound > m.heads[m.heap[0]].Time {
			break
		}
		a.next++
		if err := a.openSeg(sg); err != nil {
			return err
		}
		ev, ok, err := sg.cur.Next()
		if err != nil {
			return err
		}
		if !ok {
			a.release(slot)
			continue
		}
		if ev.Time < sg.bound {
			return fmt.Errorf("trace: segment %s (%s): %w: first record at %d precedes indexed block minimum %d",
				sg.name, FormatV2, ErrBadFooter, ev.Time, sg.bound)
		}
		m.curs[slot] = sg.cur
		m.push(slot, ev)
	}
	for a.ahead = max(a.ahead, a.next); a.ahead < len(a.order) && a.ahead < a.next+a.readAhead; a.ahead++ {
		if err := a.openSeg(&a.segs[a.order[a.ahead]]); err != nil {
			return err
		}
	}
	return nil
}

// openSeg opens sg unless it is open already (from a probe, or ahead
// of admission).
func (a *admission) openSeg(sg *segSource) error {
	if sg.cur != nil {
		return nil
	}
	f, err := os.Open(filepath.Join(a.dir, sg.name))
	if err != nil {
		return err
	}
	sg.cur, sg.release = sg.cursor(f)
	a.track(1)
	return nil
}

// release closes the segment in slot, if open.
func (a *admission) release(slot int) {
	sg := &a.segs[slot]
	if sg.cur == nil {
		return
	}
	sg.release()
	sg.cur, sg.release = nil, nil
	a.track(-1)
}

// closeAll releases every segment still open.
func (a *admission) closeAll() {
	for i := range a.segs {
		a.release(i)
	}
}
