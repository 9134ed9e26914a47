package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/tracesynth/rostracer/internal/sim"
)

// Damage classification sentinels: every FileCursor decode failure wraps
// exactly one of these, so salvage and fsck can classify what went wrong
// with errors.Is instead of matching message strings. The distinction
// matters operationally — a truncated segment is a crashed writer (its
// prefix is trustworthy), a corrupt one is media damage (the prefix is
// trustworthy only up to the damage point), a bad magic is not a segment
// at all, and an unordered segment was written by a broken producer.
var (
	ErrBadMagic  = errors.New("trace: bad segment magic")
	ErrTruncated = errors.New("trace: segment truncated mid-record")
	ErrCorrupt   = errors.New("trace: corrupt segment record")
	ErrUnordered = errors.New("trace: segment records out of (Time, Seq) order")
	// v2-specific damage classes: a complete block frame whose body does
	// not decode (media damage inside the frame), and a footer index that
	// is torn, malformed, or disagrees with the blocks actually on disk.
	// Both leave every earlier complete block trustworthy, which is why
	// they are distinct from ErrCorrupt (whose v1 meaning — record-level
	// damage — stops the trustworthy prefix at the damage point too).
	ErrBadBlock  = errors.New("trace: corrupt segment block")
	ErrBadFooter = errors.New("trace: bad segment footer index")
)

// Streaming persistence: SegmentWriter is the Sink side of the trace
// database (events append to a .rtrc segment as they are observed) and
// FileCursor is the Cursor side (records decode one at a time off a
// buffered reader). Together they make disk a pass-through stage of the
// streaming pipeline: a drain can flow rings -> merge -> segment file,
// and a stored session can flow segment files -> merge -> model builder,
// with peak buffering of one event per stream on either side.

// SegmentWriter writes the binary .rtrc codec incrementally: the magic
// header goes out on creation and every Observe appends one
// length-delimited record, so a segment of any size is written with one
// event of state. The format is self-delimiting (records carry their own
// length prefixes and the stream ends at EOF), so Close has no count
// field to patch — it only flushes, and a segment interrupted mid-write
// is recognizable by its truncated final record (see FileCursor).
//
// Errors are sticky: the first write or encode error stops further
// output and is reported by Err and Close. A SegmentWriter produces
// byte-identical output to WriteBinary over the same event sequence
// (WriteBinary is implemented as one).
type SegmentWriter struct {
	bw     *bufio.Writer
	c      io.Closer // owned destination, closed by Close (nil for plain writers)
	path   string    // destination file, when opened through a Store
	n      int
	err    error
	closed bool
	// Reused encode buffers: Observe is the per-event hot path of every
	// periodic drain, so it must not allocate (stack-local buffers would
	// escape through the io interfaces).
	lenBuf  [4]byte
	scratch []byte
	// v2 state: Observe accumulates records into enc and flushBlock frames
	// a block whenever blockRecords accumulate (or at Close), tracking the
	// footer index as it goes. All nil/zero for v1 writers.
	format       Format
	blockRecords int
	enc          *blockEnc
	off          int64 // file offset where the next block frame lands
	index        []BlockInfo

	// Async v2 encode (EnableAsync): sealed blocks travel to a background
	// goroutine that frames, writes, and indexes them, double-buffered so
	// one block fills on the caller thread while the previous one encodes
	// and writes off-thread. The caller-facing contract is unchanged —
	// single caller, sticky errors, Close drains — and the bytes produced
	// are identical to the synchronous path (same blocks, same order).
	// While the worker runs it exclusively owns bw, scratch, lenBuf, off,
	// and index (the v2 Observe path touches none of them); the caller
	// reclaims ownership after the worker exits, which is how Close can
	// write the footer in place.
	async     bool
	jobs      chan asyncEncCmd
	free      chan *blockEnc
	asyncDone chan struct{}
	aerrSet   atomic.Bool
	amu       sync.Mutex
	aerr      error
}

// asyncEncCmd is one unit of background-encoder work: a sealed block to
// write, a flush request to acknowledge, or both (never in practice).
type asyncEncCmd struct {
	enc   *blockEnc
	flush chan error
}

// NewSegmentWriter starts a v1 segment on w by writing the magic header.
// The caller must Close to flush. When w needs closing too (a file), use
// Store.WriteSegment, which hands ownership to the writer. New write
// paths should prefer NewSegmentWriterFormat (v2); this constructor
// stays v1 so its byte-equivalence pin with WriteBinary holds.
func NewSegmentWriter(w io.Writer) *SegmentWriter {
	sw := &SegmentWriter{bw: bufio.NewWriter(w), scratch: make([]byte, 0, 128), format: FormatV1}
	_, sw.err = sw.bw.WriteString(binMagic)
	return sw
}

// NewSegmentWriterFormat starts a segment on w in the given format
// (zero Format and zero blockRecords select the defaults: v2,
// defaultBlockRecords records per block).
func NewSegmentWriterFormat(w io.Writer, format Format, blockRecords int) *SegmentWriter {
	if format == 0 {
		format = FormatV2
	}
	if format == FormatV1 {
		return NewSegmentWriter(w)
	}
	if blockRecords <= 0 {
		blockRecords = defaultBlockRecords
	}
	sw := &SegmentWriter{
		bw:           bufio.NewWriter(w),
		scratch:      make([]byte, 0, 128),
		format:       FormatV2,
		blockRecords: blockRecords,
		enc:          newBlockEnc(),
	}
	_, sw.err = sw.bw.WriteString(binMagic2)
	sw.off = int64(len(binMagic2))
	return sw
}

// Format reports the on-disk format this writer produces.
func (sw *SegmentWriter) Format() Format { return sw.format }

// EnableAsync moves block encoding and writing onto a background
// goroutine. Only meaningful for v2 writers and only before the first
// Observe; v1 writers and already-started or failed writers ignore it.
// The segment bytes are identical to the synchronous path: blocks are
// framed in seal order by a single worker, and Close drains the worker
// before writing the footer.
func (sw *SegmentWriter) EnableAsync() {
	if sw.format != FormatV2 || sw.async || sw.closed || sw.err != nil || sw.n > 0 {
		return
	}
	sw.async = true
	sw.jobs = make(chan asyncEncCmd, 1)
	sw.free = make(chan *blockEnc, 2)
	sw.free <- newBlockEnc() // the spare of the double buffer
	sw.asyncDone = make(chan struct{})
	go sw.asyncLoop()
}

// asyncLoop is the background encoder: it frames and writes sealed
// blocks, recycles their encoders, and acknowledges flush requests.
// After an error it keeps draining (recycling without writing) so the
// caller never blocks on a dead worker; the error is sticky and
// surfaces through Observe, Flush, and Close.
func (sw *SegmentWriter) asyncLoop() {
	defer close(sw.asyncDone)
	for cmd := range sw.jobs {
		if cmd.enc != nil {
			if sw.asyncErr() == nil {
				if err := sw.writeBlockFrom(cmd.enc); err != nil {
					sw.setAsyncErr(err)
				}
			}
			cmd.enc.reset()
			sw.free <- cmd.enc
		}
		if cmd.flush != nil {
			err := sw.asyncErr()
			if err == nil {
				if err = sw.bw.Flush(); err != nil {
					sw.setAsyncErr(err)
				}
			}
			cmd.flush <- err
		}
	}
}

func (sw *SegmentWriter) asyncErr() error {
	if !sw.aerrSet.Load() {
		return nil
	}
	sw.amu.Lock()
	defer sw.amu.Unlock()
	return sw.aerr
}

func (sw *SegmentWriter) setAsyncErr(err error) {
	sw.amu.Lock()
	if sw.aerr == nil {
		sw.aerr = err
	}
	sw.amu.Unlock()
	sw.aerrSet.Store(true)
}

// sealAsync hands the filled encoder to the worker and takes the spare.
// Both channel operations apply backpressure: at most one sealed block
// queues while another writes, so memory stays at two blocks.
func (sw *SegmentWriter) sealAsync() {
	sw.jobs <- asyncEncCmd{enc: sw.enc}
	sw.enc = <-sw.free
}

// drainAsync seals any partial block, stops the worker, and waits for it
// to exit, reclaiming ownership of the buffered writer and the index.
// The worker's sticky error (if any) folds into the writer's.
func (sw *SegmentWriter) drainAsync() {
	if !sw.async {
		return
	}
	if sw.enc.count > 0 {
		sw.jobs <- asyncEncCmd{enc: sw.enc}
	}
	close(sw.jobs)
	<-sw.asyncDone
	sw.async = false
	if err := sw.asyncErr(); err != nil && sw.err == nil {
		sw.err = err
	}
}

// Observe implements Sink, appending one record to the segment.
func (sw *SegmentWriter) Observe(e Event) {
	if sw.closed {
		// Buffering into a flushed writer would vanish silently; make the
		// misuse loud instead.
		if sw.err == nil {
			sw.err = fmt.Errorf("trace: Observe on closed segment writer")
		}
		return
	}
	if sw.err != nil {
		return
	}
	if sw.format == FormatV2 {
		if sw.async && sw.aerrSet.Load() {
			// Surface the worker's failure here so callers that poll Err()
			// between Observes (the degradation-aware writer does) see it as
			// early as the synchronous path would have.
			sw.err = sw.asyncErr()
			return
		}
		if len(e.Node) > 0xFFFF || len(e.Topic) > 0xFFFF {
			sw.err = fmt.Errorf("trace: string field too long in event %v", e)
			return
		}
		sw.enc.add(&e)
		sw.n++
		if sw.enc.count >= sw.blockRecords {
			if sw.async {
				sw.sealAsync()
			} else {
				sw.flushBlock()
			}
		}
		return
	}
	body, ok := appendRecordBody(sw.scratch[:0], &e)
	if !ok {
		sw.err = fmt.Errorf("trace: string field too long in event %v", e)
		return
	}
	sw.scratch = body[:0] // keep any growth for the next record
	binary.LittleEndian.PutUint32(sw.lenBuf[:], uint32(len(body)))
	if _, err := sw.bw.Write(sw.lenBuf[:]); err != nil {
		sw.err = err
		return
	}
	if _, err := sw.bw.Write(body); err != nil {
		sw.err = err
		return
	}
	sw.n++
}

// flushBlock frames the accumulated v2 block and records its index
// entry. The encoder's buffers are reused for the next block.
func (sw *SegmentWriter) flushBlock() {
	if sw.err != nil || sw.enc.count == 0 {
		return
	}
	if err := sw.writeBlockFrom(sw.enc); err != nil {
		sw.err = err
		return
	}
	sw.enc.reset()
}

// writeBlockFrom frames enc's block onto the buffered writer and records
// its index entry. It is the single block-serialization path, shared by
// the synchronous flushBlock and the async worker; the caller resets the
// encoder afterwards.
func (sw *SegmentWriter) writeBlockFrom(enc *blockEnc) error {
	if enc.count == 0 {
		return nil
	}
	hdr := binary.AppendUvarint(sw.scratch[:0], uint64(enc.count))
	hdr = binary.AppendUvarint(hdr, uint64(len(enc.strs)))
	for _, s := range enc.strs {
		hdr = binary.AppendUvarint(hdr, uint64(len(s)))
		hdr = append(hdr, s...)
	}
	bodyLen := len(hdr) + len(enc.records)
	sw.lenBuf[0] = frameBlock
	if _, err := sw.bw.Write(sw.lenBuf[:1]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(sw.lenBuf[:], uint32(bodyLen))
	if _, err := sw.bw.Write(sw.lenBuf[:]); err != nil {
		return err
	}
	if _, err := sw.bw.Write(hdr); err != nil {
		return err
	}
	if _, err := sw.bw.Write(enc.records); err != nil {
		return err
	}
	sw.index = append(sw.index, BlockInfo{
		Offset:  sw.off,
		Len:     uint32(bodyLen),
		Count:   enc.count,
		MinTime: enc.minT,
		MaxTime: enc.maxT,
		Kinds:   enc.kinds,
	})
	sw.off += int64(5 + bodyLen)
	sw.scratch = hdr[:0]
	return nil
}

// writeFooter frames the footer index and its fixed-size trailer; only
// Close calls it, which is what gives v2 its crash semantics: a segment
// without a footer is a crashed writer, readable as complete blocks.
func (sw *SegmentWriter) writeFooter() {
	if sw.err != nil {
		return
	}
	body := appendFooterBody(sw.scratch[:0], sw.index, sw.n)
	sw.lenBuf[0] = frameFooter
	if _, err := sw.bw.Write(sw.lenBuf[:1]); err != nil {
		sw.err = err
		return
	}
	binary.LittleEndian.PutUint32(sw.lenBuf[:], uint32(len(body)))
	if _, err := sw.bw.Write(sw.lenBuf[:]); err != nil {
		sw.err = err
		return
	}
	if _, err := sw.bw.Write(body); err != nil {
		sw.err = err
		return
	}
	if _, err := sw.bw.Write(sw.lenBuf[:]); err != nil { // body length again, for EOF seek
		sw.err = err
		return
	}
	if _, err := sw.bw.WriteString(footerTrailerMagic); err != nil {
		sw.err = err
		return
	}
	sw.scratch = body[:0]
}

// Count reports how many records have been written.
func (sw *SegmentWriter) Count() int { return sw.n }

// Path reports the destination file of a store-opened writer (empty for
// plain io.Writer destinations) — what a caller removes when a failed
// drain must not leave a partial segment looking like a complete one.
func (sw *SegmentWriter) Path() string { return sw.path }

// Err reports the first write or encode error, if any.
func (sw *SegmentWriter) Err() error { return sw.err }

// Flush forces buffered output down to the destination, reporting the
// stream's first error. Observe buffers (bufio, plus the open block in
// v2), so a destination failure normally surfaces records later, at a
// buffer or block boundary or at Close; a recovery path that must know
// now whether a fresh segment's disk is writable flushes right after
// opening instead of discovering the answer mid-drain. Flush does not
// frame the open v2 block — only Close and the blockRecords bound do —
// so flushing mid-block keeps the block layout deterministic.
func (sw *SegmentWriter) Flush() error {
	if sw.closed || sw.err != nil {
		return sw.err
	}
	if sw.async {
		// The worker owns the buffered writer; route the flush through it.
		// Channel order guarantees every block sealed before this call is
		// written first, exactly as the synchronous path would have.
		ch := make(chan error, 1)
		sw.jobs <- asyncEncCmd{flush: ch}
		sw.err = <-ch
		return sw.err
	}
	sw.err = sw.bw.Flush()
	return sw.err
}

// Close flushes buffered output (and closes the destination when the
// writer owns it), reporting the first error of the whole stream. For v2
// this is also where the final block and the footer index are framed:
// a segment that never reached Close has no footer, which is exactly how
// readers recognize a crashed writer. Close is idempotent.
func (sw *SegmentWriter) Close() error {
	if sw.closed {
		return sw.err
	}
	sw.closed = true
	if sw.format == FormatV2 {
		if sw.async {
			sw.drainAsync()
		} else {
			sw.flushBlock()
		}
		sw.writeFooter()
	}
	if sw.err == nil {
		sw.err = sw.bw.Flush()
	}
	if sw.c != nil {
		if cerr := sw.c.Close(); sw.err == nil {
			sw.err = cerr
		}
	}
	return sw.err
}

// FileCursor decodes a .rtrc segment into a Cursor: one record per Next,
// off a buffered reader, with a single reused record buffer — reading a
// multi-GB segment holds one record in memory, never the segment. It
// accepts exactly the inputs ReadBinary accepts and fails exactly where
// ReadBinary fails (ReadBinary is implemented over it, and
// FuzzFileCursor pins the equivalence): a segment truncated mid-record —
// e.g. by a writer killed before Close — yields every complete record
// and then an error, so no partial-record event ever reaches a sink.
type FileCursor struct {
	br   *bufio.Reader
	c    io.Closer // owned source, closed by Close (nil for plain readers)
	name string    // when set (store-opened cursors), errors name the segment
	buf  []byte
	// strict makes Next reject records out of (Time, Seq) order. Store
	// segments are required sorted (MergeStream cannot re-sort, and an
	// out-of-order stream would silently corrupt Algorithm 2's windows),
	// so store-opened cursors validate; the plain codec keeps accepting
	// arbitrary traces, as WriteBinary round-trips them.
	strict   bool
	prevTime sim.Time
	prevSeq  uint64
	prevSet  bool
	lenBuf   [4]byte // reused: a stack-local would escape through io.ReadFull
	err      error
	started  bool
	done     bool
	// consumed counts the bytes of the stream covered by the magic header
	// and every fully decoded frame — the length of the longest prefix
	// that is itself a valid segment. Salvage uses it to report how many
	// bytes of a damaged segment were recovered vs dropped. For v1 the
	// granularity is one record; for v2 it is one block frame (the
	// complete-record prefix of a torn block is yielded but not counted,
	// since those bytes are not themselves a valid segment).
	consumed int64
	// v2 state: decoded-but-unserved records of the current block, the
	// reused string table, an error held back until the torn block's
	// complete-record prefix has been served, and the observed block index
	// (validated against the footer, and usable to rebuild a missing one).
	version     Format
	blockEvents []Event
	blockIdx    int
	blockStrs   []string
	pendingErr  error
	obsIndex    []BlockInfo
	recCount    int
}

// NewFileCursor opens a cursor over a .rtrc stream. The magic header is
// validated on the first Next. Store's read paths open segment files
// behind cursors that own them.
func NewFileCursor(r io.Reader) *FileCursor {
	return &FileCursor{br: bufio.NewReader(r)}
}

func (c *FileCursor) fail(err error) (Event, bool, error) {
	if c.name != "" {
		err = fmt.Errorf("trace: segment %s (%s): %w", c.name, c.version, err)
	}
	c.err = err
	return Event{}, false, c.err
}

// checkOrder enforces (Time, Seq) order on strict cursors.
func (c *FileCursor) checkOrder(ev *Event) error {
	if !c.strict {
		return nil
	}
	if c.prevSet && (ev.Time < c.prevTime || (ev.Time == c.prevTime && ev.Seq < c.prevSeq)) {
		return fmt.Errorf("%w: (%d, %d) after (%d, %d)",
			ErrUnordered, ev.Time, ev.Seq, c.prevTime, c.prevSeq)
	}
	c.prevTime, c.prevSeq, c.prevSet = ev.Time, ev.Seq, true
	return nil
}

// Next implements Cursor. Errors are sticky: after the first decode
// error the cursor keeps returning it.
func (c *FileCursor) Next() (Event, bool, error) {
	if c.err != nil {
		return Event{}, false, c.err
	}
	if c.done {
		return Event{}, false, nil
	}
	if !c.started {
		c.started = true
		var magic [len(binMagic)]byte
		if _, err := io.ReadFull(c.br, magic[:]); err != nil {
			return c.fail(fmt.Errorf("%w: reading magic: %w", ErrTruncated, err))
		}
		switch string(magic[:]) {
		case binMagic:
			c.version = FormatV1
		case binMagic2:
			c.version = FormatV2
		default:
			return c.fail(fmt.Errorf("%w: %q", ErrBadMagic, magic))
		}
		c.consumed = int64(len(binMagic))
	}
	if c.version == FormatV2 {
		return c.nextV2()
	}
	if _, err := io.ReadFull(c.br, c.lenBuf[:]); err != nil {
		if err == io.EOF {
			c.done = true
			return Event{}, false, nil
		}
		return c.fail(fmt.Errorf("%w: record length: %w", ErrTruncated, err))
	}
	n := binary.LittleEndian.Uint32(c.lenBuf[:])
	if n < recFixedSize || n > 1<<20 {
		return c.fail(fmt.Errorf("%w: implausible record length %d", ErrCorrupt, n))
	}
	if cap(c.buf) < int(n) {
		c.buf = make([]byte, n)
	}
	buf := c.buf[:n]
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return c.fail(fmt.Errorf("%w: record body: %w", ErrTruncated, err))
	}
	// decodeRecord interns the string fields, so the record buffer can be
	// reused for the next Next.
	ev, err := decodeRecord(buf)
	if err != nil {
		return c.fail(fmt.Errorf("%w: %w", ErrCorrupt, err))
	}
	if err := c.checkOrder(&ev); err != nil {
		return c.fail(err)
	}
	c.consumed += int64(4 + n)
	return ev, true, nil
}

// nextV2 serves decoded records out of the current block, pulling the
// next frame when the block runs dry. A torn or damaged block's
// complete-record prefix is served before its error surfaces, matching
// v1's "every complete record, then the error" salvage semantics.
func (c *FileCursor) nextV2() (Event, bool, error) {
	for {
		if c.blockIdx < len(c.blockEvents) {
			ev := c.blockEvents[c.blockIdx]
			c.blockIdx++
			if err := c.checkOrder(&ev); err != nil {
				return c.fail(err)
			}
			return ev, true, nil
		}
		if c.pendingErr != nil {
			return c.fail(c.pendingErr)
		}
		tag, err := c.br.ReadByte()
		if err != nil {
			if err == io.EOF {
				// EOF at a frame boundary with no footer seen: a crashed
				// writer. Every block already served is trustworthy, so this
				// ends the stream cleanly, like a v1 segment cut at a record
				// boundary.
				c.done = true
				return Event{}, false, nil
			}
			return c.fail(fmt.Errorf("%w: frame tag: %w", ErrTruncated, err))
		}
		switch tag {
		case frameBlock:
			if err := c.readBlock(); err != nil {
				return c.fail(err)
			}
		case frameFooter:
			if err := c.readFooter(); err != nil {
				return c.fail(err)
			}
			c.done = true
			return Event{}, false, nil
		default:
			return c.fail(fmt.Errorf("%w: unknown frame tag %#x", ErrCorrupt, tag))
		}
	}
}

// readBlock reads and decodes one block frame. Damage inside the frame
// is deferred via pendingErr so the block's complete-record prefix is
// served first; damage to the frame itself fails immediately.
func (c *FileCursor) readBlock() error {
	if _, err := io.ReadFull(c.br, c.lenBuf[:]); err != nil {
		return fmt.Errorf("%w: block length: %w", ErrTruncated, err)
	}
	n := binary.LittleEndian.Uint32(c.lenBuf[:])
	if n == 0 || n > maxBlockBody {
		return fmt.Errorf("%w: implausible block length %d", ErrCorrupt, n)
	}
	if cap(c.buf) < int(n) {
		c.buf = make([]byte, n)
	}
	body := c.buf[:n]
	m, rerr := io.ReadFull(c.br, body)
	if rerr != nil {
		// Torn block: decode the complete-record prefix of what did arrive,
		// serve it, then surface the truncation.
		evs, strs, _, _ := decodeBlockBody(c.blockEvents[:0], c.blockStrs[:0], body[:m])
		c.blockEvents, c.blockStrs, c.blockIdx = evs, strs, 0
		c.pendingErr = fmt.Errorf("%w: block body: %w", ErrTruncated, rerr)
		return nil
	}
	evs, strs, info, derr := decodeBlockBody(c.blockEvents[:0], c.blockStrs[:0], body)
	c.blockEvents, c.blockStrs, c.blockIdx = evs, strs, 0
	if derr != nil {
		c.pendingErr = fmt.Errorf("%w: %w", ErrBadBlock, derr)
		return nil
	}
	info.Offset = c.consumed
	info.Len = n
	c.obsIndex = append(c.obsIndex, info)
	c.recCount += info.Count
	c.consumed += int64(5 + n)
	return nil
}

// readFooter reads, validates, and cross-checks the footer index against
// the blocks actually decoded. Anything wrong past the footer tag — a
// torn footer, a trailer mismatch, an index that disagrees with the data
// — is ErrBadFooter: the records are fine, only the index is not.
func (c *FileCursor) readFooter() error {
	badf := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadFooter, fmt.Sprintf(format, args...))
	}
	if _, err := io.ReadFull(c.br, c.lenBuf[:]); err != nil {
		return badf("footer length: %v", err)
	}
	n := binary.LittleEndian.Uint32(c.lenBuf[:])
	if n > maxFooterBody {
		return badf("implausible footer length %d", n)
	}
	need := int(n) + footerTrailerLen
	if cap(c.buf) < need {
		c.buf = make([]byte, need)
	}
	buf := c.buf[:need]
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return badf("footer body: %v", err)
	}
	trailer := buf[n:]
	if binary.LittleEndian.Uint32(trailer) != n || string(trailer[4:]) != footerTrailerMagic {
		return badf("trailer mismatch")
	}
	blocks, records, err := parseFooterBody(buf[:n])
	if err != nil {
		return badf("%v", err)
	}
	if len(blocks) != len(c.obsIndex) || records != c.recCount {
		return badf("index disagrees with data: %d vs %d blocks, %d vs %d records",
			len(blocks), len(c.obsIndex), records, c.recCount)
	}
	for i := range blocks {
		if blocks[i] != c.obsIndex[i] {
			return badf("index entry %d disagrees with data", i)
		}
	}
	// Nothing may follow the trailer.
	if _, err := c.br.ReadByte(); err == nil {
		return fmt.Errorf("%w: trailing bytes after footer", ErrCorrupt)
	} else if err != io.EOF {
		return fmt.Errorf("%w: after footer: %w", ErrCorrupt, err)
	}
	c.consumed += int64(5 + need)
	return nil
}

// BlockIndex returns the index entries of every complete block decoded
// so far — after a clean full read, the same entries the footer carries.
// Query paths use it to reconstruct the index of a segment whose footer
// was never written (crashed writer). The slice is owned by the cursor.
func (c *FileCursor) BlockIndex() []BlockInfo { return c.obsIndex }

// BytesConsumed reports the length of the longest stream prefix covered
// by the magic header and fully decoded records. For an undamaged
// segment read to the end this is the whole file; for a damaged one it
// marks the damage point — everything past it is what salvage drops.
func (c *FileCursor) BytesConsumed() int64 { return c.consumed }

// Err reports the first decode error, if any.
func (c *FileCursor) Err() error { return c.err }

// Close releases the underlying source when the cursor owns it.
func (c *FileCursor) Close() error {
	if c.c != nil {
		return c.c.Close()
	}
	return nil
}
