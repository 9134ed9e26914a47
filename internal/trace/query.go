package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"github.com/tracesynth/rostracer/internal/sim"
)

// Filtered session reads. StreamSession decodes every record of every
// segment; QuerySession uses the v2 footer indexes to decode only the
// blocks that can match a filter — a narrow time window over a long
// session touches a handful of blocks per segment instead of the whole
// store. v1 segments (and stores opened with a WrapReader, which cannot
// seek) degrade to a sequential scan with the same filter applied
// record-by-record, so results are format-independent.

// Filter selects a subset of a session's events. The zero value matches
// everything.
type Filter struct {
	// T0 and T1 bound Event.Time inclusively. T1 == 0 means unbounded
	// above (trace times are positive; a store has no events at time 0).
	T0, T1 sim.Time
	// Kinds restricts to the listed event kinds; empty means all.
	Kinds []Kind
	// Node restricts to events attributed to one node; "" means all.
	Node string
}

// compiledFilter is Filter lowered for the per-record hot path: kinds as
// a bitmap, bounds normalized.
type compiledFilter struct {
	t0, t1 sim.Time // t1 == maxTime when unbounded
	kinds  uint32   // 0 means all kinds
	node   string
}

const maxSimTime = sim.Time(1<<63 - 1)

func compileFilter(f Filter) compiledFilter {
	cf := compiledFilter{t0: f.T0, t1: f.T1, node: f.Node}
	if cf.t1 == 0 {
		cf.t1 = maxSimTime
	}
	for _, k := range f.Kinds {
		cf.kinds |= kindBit(k)
	}
	return cf
}

func (cf *compiledFilter) match(e *Event) bool {
	if e.Time < cf.t0 || e.Time > cf.t1 {
		return false
	}
	if cf.kinds != 0 && cf.kinds&kindBit(e.Kind) == 0 {
		return false
	}
	if cf.node != "" && e.Node != cf.node {
		return false
	}
	return true
}

// blockOverlaps decides from the index alone whether a block can hold a
// matching record.
func (cf *compiledFilter) blockOverlaps(bi *BlockInfo) bool {
	if bi.MaxTime < cf.t0 || bi.MinTime > cf.t1 {
		return false
	}
	if cf.kinds != 0 && cf.kinds&bi.Kinds == 0 {
		return false
	}
	return true
}

// QueryStats reports how much work a QuerySession did — the observable
// proof that an indexed read skipped what the filter excluded.
type QueryStats struct {
	Segments       int // segment files opened
	PeakOpen       int // most segment files open at once
	Scans          int // segments read sequentially (v1, or WrapReader set)
	BlocksTotal    int // v2 blocks listed by the indexes
	BlocksRead     int // v2 blocks whose records were decoded
	BlocksSkipped  int // v2 blocks excluded without decoding records
	FootersRebuilt int // v2 segments whose missing footer was rebuilt by scan
	RecordsDecoded int // records decoded (indexed path only)
	RecordsMatched int // records that passed the filter into the sink
}

// QuerySession streams the events of a session matching f into sink in
// (Time, Seq) order — StreamSession with a filter pushed down into the
// storage layer. For v2 segments the footer index selects only blocks
// overlapping the time window whose kind bitmap intersects the filter
// (and, for node filters, whose string table mentions the node), reading
// them with positioned reads; a segment whose footer is missing — a
// crashed writer — gets its index rebuilt by one sequential scan. v1
// segments and fault-injected stores (WrapReader set: the wrapped reader
// cannot seek) fall back to a full sequential scan with the same filter.
// Damage fails the query exactly as it fails StreamSession; use
// SalvageSession for degraded reads.
//
// Each v2 segment is opened to read its index and closed again; it
// reopens only if a block was selected, when the merge reaches that
// block's MinTime, and closes once exhausted, so a narrow window over a
// long session holds one or two segment files open, not all of them
// (QueryStats.PeakOpen).
//
// With Parallelism resolved above 1 the selected v2 blocks decode on a
// worker pool: each segment cursor keeps a small window of outstanding
// block reads, workers serve them with positioned reads (v2 blocks are
// self-contained, so any block decodes without its predecessors), and
// the cursor re-serves decoded blocks strictly in index order. Output,
// errors, and QueryStats are identical to the sequential path.
func (s *Store) QuerySession(session string, f Filter, sink Sink) (qs QueryStats, err error) {
	cf := compileFilter(f)
	names, err := s.sessionSegments(session)
	if err != nil {
		return qs, err
	}
	// The next segment opens ahead of admission, so a parallel decode
	// starts on its first blocks while the merge drains the one before.
	// One at every parallelism, so QueryStats stay identical across them.
	a := &admission{dir: s.dir, readAhead: 1}
	var pool *blockPool
	defer func() {
		if pool != nil {
			pool.stop()
		}
		a.closeAll()
		qs.PeakOpen = a.peak
	}()
	parallelism := s.ResolveParallelism()
	scan := func(f *os.File) (Cursor, func()) {
		fc := s.cursorOn(f)
		return &filterCursor{c: fc, f: &cf, qs: &qs}, func() { fc.Close() }
	}
	held := false
	for _, name := range names {
		qs.Segments++
		if s.WrapReader != nil {
			qs.Scans++
			a.add(name, minSimTime, nil, scan)
			continue
		}
		f, err := a.probe(name)
		if err != nil {
			return qs, err
		}
		sel, v1, err := selectBlocks(f, name, &cf, &qs)
		switch {
		case err != nil:
			a.drop(f)
			return qs, err
		case v1:
			qs.Scans++
			a.add(name, minSimTime, f, scan)
		case len(sel) == 0:
			a.drop(f)
		default:
			// The first segment with a selected block keeps its file open:
			// in a time-ordered store the merge opens it first, and a narrow
			// window often needs no other.
			if held {
				a.drop(f)
				f = nil
			}
			held = true
			a.add(name, sel[0].MinTime, f, func(f *os.File) (Cursor, func()) {
				release := func() { f.Close() }
				if parallelism > 1 && len(sel) > 1 {
					if pool == nil {
						pool = newBlockPool(parallelism)
					}
					c := &parallelIndexedCursor{
						f: f, name: name, blocks: sel, filter: &cf, qs: &qs,
						pool: pool, window: parallelism,
					}
					c.fill()
					return c, release
				}
				return &indexedCursor{f: f, name: name, blocks: sel, filter: &cf, qs: &qs}, release
			})
		}
	}
	err = a.run(sink)
	return qs, err
}

// selectBlocks reads an open segment's block index and returns the v2
// blocks the filter can match, in file order; none means the segment is
// never read. v1 reports a segment with no index, to be scanned.
func selectBlocks(file *os.File, name string, cf *compiledFilter, qs *QueryStats) (sel []BlockInfo, v1 bool, err error) {
	var magic [len(binMagic)]byte
	if _, err := file.ReadAt(magic[:], 0); err != nil {
		return nil, false, fmt.Errorf("trace: segment %s: %w: reading magic: %w", name, ErrTruncated, err)
	}
	switch string(magic[:]) {
	case binMagic:
		return nil, true, nil
	case binMagic2:
		blocks, err := segmentBlockIndex(file, name, qs)
		if err != nil {
			return nil, false, err
		}
		qs.BlocksTotal += len(blocks)
		for i := range blocks {
			if cf.blockOverlaps(&blocks[i]) {
				sel = append(sel, blocks[i])
			}
		}
		qs.BlocksSkipped += len(blocks) - len(sel)
		return sel, false, nil
	default:
		return nil, false, fmt.Errorf("trace: segment %s: %w: %q", name, ErrBadMagic, magic)
	}
}

// segmentBlockIndex loads a v2 segment's footer index via the EOF
// trailer, or rebuilds it with one sequential scan when the footer is
// missing (crashed writer: the segment ends cleanly at a block boundary
// with no footer frame). Any other damage fails the query.
func segmentBlockIndex(file *os.File, name string, qs *QueryStats) ([]BlockInfo, error) {
	fi, err := file.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	blocks, ok, err := readFooterAt(file, size)
	if err != nil {
		return nil, fmt.Errorf("trace: segment %s (%s): %w", name, FormatV2, err)
	}
	if ok {
		return blocks, nil
	}
	// No trailer at EOF. Scan: a clean footer-less segment yields its
	// observed index; anything else (torn block, damage) errors here,
	// exactly as StreamSession would.
	fc := NewFileCursor(io.NewSectionReader(file, 0, size))
	fc.name = name
	fc.strict = true
	for {
		if _, ok, err := fc.Next(); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	qs.FootersRebuilt++
	return fc.BlockIndex(), nil
}

// readFooterAt reads and validates the footer index through the
// fixed-size EOF trailer. ok is false when there is no trailer at all
// (no footer was ever written); an error means a footer-shaped tail that
// fails validation.
func readFooterAt(file *os.File, size int64) (blocks []BlockInfo, ok bool, err error) {
	if size < int64(len(binMagic2)+5+footerTrailerLen) {
		return nil, false, nil
	}
	var tr [footerTrailerLen]byte
	if _, err := file.ReadAt(tr[:], size-int64(footerTrailerLen)); err != nil {
		return nil, false, err
	}
	if string(tr[4:]) != footerTrailerMagic {
		return nil, false, nil
	}
	n := binary.LittleEndian.Uint32(tr[:4])
	if n > maxFooterBody {
		return nil, false, fmt.Errorf("%w: implausible footer length %d", ErrBadFooter, n)
	}
	frameOff := size - int64(footerTrailerLen) - int64(n) - 5
	if frameOff < int64(len(binMagic2)) {
		return nil, false, fmt.Errorf("%w: footer overruns segment", ErrBadFooter)
	}
	buf := make([]byte, 5+int(n))
	if _, err := file.ReadAt(buf, frameOff); err != nil {
		return nil, false, err
	}
	if buf[0] != frameFooter || binary.LittleEndian.Uint32(buf[1:5]) != n {
		return nil, false, fmt.Errorf("%w: trailer mismatch", ErrBadFooter)
	}
	blocks, _, err = parseFooterBody(buf[5:])
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrBadFooter, err)
	}
	// Offsets must stay inside the data region for positioned reads.
	for i := range blocks {
		if blocks[i].Offset+5+int64(blocks[i].Len) > frameOff {
			return nil, false, fmt.Errorf("%w: block %d overruns data region", ErrBadFooter, i)
		}
	}
	return blocks, true, nil
}

// filterCursor applies a compiled filter over a sequential cursor.
type filterCursor struct {
	c  *FileCursor
	f  *compiledFilter
	qs *QueryStats
}

func (c *filterCursor) Next() (Event, bool, error) {
	for {
		ev, ok, err := c.c.Next()
		if err != nil || !ok {
			return ev, ok, err
		}
		if c.f.match(&ev) {
			c.qs.RecordsMatched++
			return ev, true, nil
		}
	}
}

// indexedCursor decodes only the selected blocks of a v2 segment with
// positioned reads, applying the record filter as it serves them. Blocks
// are self-contained, so decoding can start at any selected block; the
// selection preserves file order, so the stream stays (Time, Seq)-sorted
// exactly as the sequential cursor would serve it.
type indexedCursor struct {
	f      *os.File
	name   string
	blocks []BlockInfo
	filter *compiledFilter
	qs     *QueryStats

	bi     int
	buf    []byte
	events []Event
	strs   []string
	ei     int
	err    error
}

func (c *indexedCursor) fail(err error) (Event, bool, error) {
	c.err = fmt.Errorf("trace: segment %s (%s): %w", c.name, FormatV2, err)
	return Event{}, false, c.err
}

func (c *indexedCursor) Next() (Event, bool, error) {
	if c.err != nil {
		return Event{}, false, c.err
	}
	for {
		for c.ei < len(c.events) {
			ev := c.events[c.ei]
			c.ei++
			if c.filter.match(&ev) {
				c.qs.RecordsMatched++
				return ev, true, nil
			}
		}
		if c.bi >= len(c.blocks) {
			return Event{}, false, nil
		}
		bi := c.blocks[c.bi]
		c.bi++
		need := 5 + int(bi.Len)
		if cap(c.buf) < need {
			c.buf = make([]byte, need)
		}
		frame := c.buf[:need]
		if _, err := c.f.ReadAt(frame, bi.Offset); err != nil {
			return c.fail(fmt.Errorf("%w: block at %d: %v", ErrBadBlock, bi.Offset, err))
		}
		if frame[0] != frameBlock || binary.LittleEndian.Uint32(frame[1:5]) != bi.Len {
			return c.fail(fmt.Errorf("%w: frame at %d disagrees with index", ErrBadBlock, bi.Offset))
		}
		body := frame[5:]
		// Node filters can skip the record decode entirely when the block's
		// string table does not mention the node.
		if c.filter.node != "" {
			_, strs, _, err := decodeBlockHeader(body, c.strs[:0])
			c.strs = strs
			if err != nil {
				return c.fail(fmt.Errorf("%w: %v", ErrBadBlock, err))
			}
			found := false
			for _, s := range strs {
				if s == c.filter.node {
					found = true
					break
				}
			}
			if !found {
				c.qs.BlocksSkipped++
				continue
			}
		}
		events, strs, _, err := decodeBlockBody(c.events[:0], c.strs[:0], body)
		c.events, c.strs, c.ei = events, strs, 0
		if err != nil {
			return c.fail(fmt.Errorf("%w: %v", ErrBadBlock, err))
		}
		c.qs.BlocksRead++
		c.qs.RecordsDecoded += len(events)
	}
}

// blockPool is a shared worker pool decoding v2 blocks for the parallel
// query path. Jobs carry everything a worker needs (file, index entry,
// filter) and deliver into a per-job buffered channel, so workers never
// block on a consumer and the pool drains cleanly even when the merge
// aborts early.
type blockPool struct {
	jobs chan *blockJob
	wg   sync.WaitGroup
}

type blockJob struct {
	f      *os.File
	info   BlockInfo
	filter *compiledFilter
	res    chan blockResult // buffered (1): the worker's send never blocks
}

type blockResult struct {
	events  []Event
	skipped bool // node prefilter excluded the block without decoding records
	err     error
}

func newBlockPool(workers int) *blockPool {
	p := &blockPool{jobs: make(chan *blockJob)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job.res <- runBlockJob(job)
			}
		}()
	}
	return p
}

// stop ends the workers and waits for them to exit. Callers must stop
// the pool before closing the segment files the jobs read.
func (p *blockPool) stop() {
	close(p.jobs)
	p.wg.Wait()
}

// runBlockJob reads, validates, and decodes one block — the worker-side
// half of indexedCursor.Next, byte for byte: positioned read, frame
// check against the index, node prefilter via the block string table,
// then the record decode. Per-job buffers are freshly allocated; the
// events slice is handed off to the consuming cursor.
func runBlockJob(job *blockJob) blockResult {
	bi := job.info
	frame := make([]byte, 5+int(bi.Len))
	if _, err := job.f.ReadAt(frame, bi.Offset); err != nil {
		return blockResult{err: fmt.Errorf("%w: block at %d: %v", ErrBadBlock, bi.Offset, err)}
	}
	if frame[0] != frameBlock || binary.LittleEndian.Uint32(frame[1:5]) != bi.Len {
		return blockResult{err: fmt.Errorf("%w: frame at %d disagrees with index", ErrBadBlock, bi.Offset)}
	}
	body := frame[5:]
	if job.filter.node != "" {
		_, strs, _, err := decodeBlockHeader(body, nil)
		if err != nil {
			return blockResult{err: fmt.Errorf("%w: %v", ErrBadBlock, err)}
		}
		found := false
		for _, s := range strs {
			if s == job.filter.node {
				found = true
				break
			}
		}
		if !found {
			return blockResult{skipped: true}
		}
	}
	events, _, _, err := decodeBlockBody(nil, nil, body)
	if err != nil {
		return blockResult{err: fmt.Errorf("%w: %v", ErrBadBlock, err)}
	}
	return blockResult{events: events}
}

// parallelIndexedCursor serves the selected blocks of one v2 segment
// from the shared worker pool, keeping up to window block reads
// outstanding and re-serving results strictly in index order — so the
// merged stream, the per-record filtering, and the stats all match the
// sequential indexedCursor exactly. Stats are aggregated here, on the
// single merge thread, as results arrive.
type parallelIndexedCursor struct {
	f      *os.File
	name   string
	blocks []BlockInfo
	filter *compiledFilter
	qs     *QueryStats
	pool   *blockPool
	window int

	next    int                // next block index to submit
	pending []chan blockResult // outstanding results, oldest first
	events  []Event
	ei      int
	err     error
}

// fill submits block reads until window are outstanding. A segment
// opened ahead of admission fills at once, so its first blocks decode
// while the merge still drains the segment before it.
func (c *parallelIndexedCursor) fill() {
	for c.next < len(c.blocks) && len(c.pending) < c.window {
		res := make(chan blockResult, 1)
		c.pool.jobs <- &blockJob{f: c.f, info: c.blocks[c.next], filter: c.filter, res: res}
		c.pending = append(c.pending, res)
		c.next++
	}
}

func (c *parallelIndexedCursor) fail(err error) (Event, bool, error) {
	c.err = fmt.Errorf("trace: segment %s (%s): %w", c.name, FormatV2, err)
	return Event{}, false, c.err
}

func (c *parallelIndexedCursor) Next() (Event, bool, error) {
	if c.err != nil {
		return Event{}, false, c.err
	}
	for {
		for c.ei < len(c.events) {
			ev := c.events[c.ei]
			c.ei++
			if c.filter.match(&ev) {
				c.qs.RecordsMatched++
				return ev, true, nil
			}
		}
		c.fill()
		if len(c.pending) == 0 {
			return Event{}, false, nil
		}
		r := <-c.pending[0]
		c.pending = c.pending[1:]
		if r.err != nil {
			return c.fail(r.err)
		}
		if r.skipped {
			c.qs.BlocksSkipped++
			continue
		}
		c.qs.BlocksRead++
		c.qs.RecordsDecoded += len(r.events)
		c.events, c.ei = r.events, 0
	}
}
