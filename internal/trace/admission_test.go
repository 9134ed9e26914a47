package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

// Session reads open segments lazily, in time order. These tests pin the
// merged output of every session read path to a brute-force oracle over
// a store of many segments whose time ranges overlap, and bound how many
// segment files are open at once while they run.

const (
	manySegs     = 300
	segV1        = 5 // in the mixed store: written as v1
	segNoFooter  = 9 // in the mixed store: v2 with its footer cut off
	manySession  = "s"
	manyBlockLen = 4
)

// manySegmentEvents generates manySegs segments of about ten events.
// Segment i spans times (100i, 100i+180], so neighbours overlap but no
// time falls in more than two segments; segments 10k and 10k+1 trade
// time ranges, so first times run out of segment order; and every
// seventh segment shares one (Time, Seq) with its predecessor, so ties
// across segments must break toward the earlier segment. PID names the
// segment, which makes tie order visible.
func manySegmentEvents() [][]Event {
	rng := rand.New(rand.NewSource(29))
	kinds := []Kind{KindSubCBStart, KindTakeInt, KindSchedSwitch, KindSubCBEnd, KindDDSWrite}
	nodes := []string{"filter_front", "filter_rear", "fusion"}
	base := func(i int) int64 {
		switch i % 10 {
		case 0:
			return int64(i+1) * 100
		case 1:
			return int64(i-1) * 100
		}
		return int64(i) * 100
	}
	segs := make([][]Event, manySegs)
	seq := uint64(0)
	for i := range segs {
		for j := 0; j < 8+rng.Intn(5); j++ {
			seq++
			k := kinds[rng.Intn(len(kinds))]
			ev := Event{Time: sim.Time(base(i) + 1 + rng.Int63n(180)), Seq: seq, Kind: k, PID: uint32(1000 + i)}
			if k == KindTakeInt || k == KindDDSWrite {
				ev.Node = nodes[rng.Intn(len(nodes))]
				ev.Topic = "t/" + ev.Node
			}
			segs[i] = append(segs[i], ev)
		}
		if d := base(i) - base(i-1); i > 0 && i%7 == 0 && (d == 100 || d == -100) {
			// A time inside both segments' ranges.
			seq++
			tie := Event{Time: sim.Time(max(base(i), base(i-1)) + 50), Seq: seq, Kind: KindSubCBStart}
			tie.PID = uint32(1000 + i - 1)
			segs[i-1] = append(segs[i-1], tie)
			tie.PID = uint32(1000 + i)
			segs[i] = append(segs[i], tie)
		}
	}
	for _, evs := range segs {
		sort.Slice(evs, func(a, b int) bool {
			if evs[a].Time != evs[b].Time {
				return evs[a].Time < evs[b].Time
			}
			return evs[a].Seq < evs[b].Seq
		})
	}
	return segs
}

// writeManySegments writes segs as one session of small-block v2
// segments; mixed makes segment segV1 v1 and cuts the footer off
// segment segNoFooter, as a writer killed before Close leaves it.
func writeManySegments(t *testing.T, segs [][]Event, mixed bool) *Store {
	t.Helper()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.BlockRecords = manyBlockLen
	for i, evs := range segs {
		st.Format = FormatV2
		if mixed && i == segV1 {
			st.Format = FormatV1
		}
		sw, err := st.WriteSegment(manySession, i)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			sw.Observe(e)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	st.Format = 0
	if mixed {
		path := st.segPath(manySession, segNoFooter)
		blocks := footerOf(t, path)
		last := blocks[len(blocks)-1]
		if err := os.Truncate(path, last.Offset+5+int64(last.Len)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// footerOf reads the footer index of a v2 segment file.
func footerOf(t *testing.T, path string) []BlockInfo {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	blocks, ok, err := readFooterAt(f, fileSize(f))
	if err != nil || !ok {
		t.Fatalf("%s: no footer: %v", path, err)
	}
	return blocks
}

// oracle is the session read's reference: every event of every segment,
// stable-sorted by (Time, Seq) — so ties keep segment order — then
// filtered.
func oracle(segs [][]Event, f Filter) []Event {
	var all []Event
	for _, evs := range segs {
		all = append(all, evs...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Time != all[j].Time {
			return all[i].Time < all[j].Time
		}
		return all[i].Seq < all[j].Seq
	})
	var out []Event
	for _, e := range all {
		if e.Time < f.T0 || (f.T1 != 0 && e.Time > f.T1) || (f.Node != "" && e.Node != f.Node) {
			continue
		}
		if len(f.Kinds) > 0 && !kindIn(e.Kind, f.Kinds) {
			continue
		}
		out = append(out, e)
	}
	return out
}

func kindIn(k Kind, kinds []Kind) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

// fdCounter counts this process's open descriptors on files in one
// directory, through /proc/self/fd; it is disabled where that does not
// exist.
type fdCounter struct {
	dir  string
	peak int
}

func newFDCounter(t *testing.T, dir string) *fdCounter {
	t.Helper()
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		return nil
	}
	real, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	return &fdCounter{dir: real + string(filepath.Separator)}
}

func (c *fdCounter) sample() {
	if c == nil {
		return
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(target, c.dir) {
			n++
		}
	}
	c.peak = max(c.peak, n)
}

// readAll runs one session read into a collecting sink that samples the
// open segment files at every event, returning the events and the
// sampled peak (-1 where it cannot be sampled). No segment file may stay
// open after the read.
func readAll(t *testing.T, st *Store, read func(Sink) error) ([]Event, int) {
	t.Helper()
	fds := newFDCounter(t, st.Dir())
	var got []Event
	if err := read(SinkFunc(func(e Event) {
		fds.sample()
		got = append(got, e)
	})); err != nil {
		t.Fatal(err)
	}
	if fds == nil {
		return got, -1
	}
	peak := fds.peak
	fds.peak = 0
	if fds.sample(); fds.peak != 0 {
		t.Fatalf("%d segment files left open after the read", fds.peak)
	}
	return got, peak
}

func sameEvents(t *testing.T, what string, got, want []Event) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		n := min(len(got), len(want))
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				t.Fatalf("%s: event %d is %v, want %v (%d vs %d events)", what, i, got[i], want[i], len(got), len(want))
			}
		}
		t.Fatalf("%s: %d events, want %d", what, len(got), len(want))
	}
}

// TestSessionReadsManySegments checks StreamSession, QuerySession and
// SalvageSession against the oracle over 300 overlapping segments, at
// sequential and parallel settings, on a v2-only store and on one that
// also holds a v1 and a footer-less v2 segment. On the v2-only store the
// files open at once stay within 2 + ResolveParallelism(): the
// overlapping pair plus the read-ahead, never the segment count.
func TestSessionReadsManySegments(t *testing.T) {
	segs := manySegmentEvents()
	filters := map[string]Filter{
		"narrow": {T0: 15000, T1: 15250},
		// Segments 150 and 151 trade ranges: the first selected segment
		// in segment order is not the first in time.
		"swapped": {T0: 15101, T1: 15180},
		"kinds":   {Kinds: []Kind{KindTakeInt, KindSchedSwitch}},
		"node":    {Node: "fusion"},
	}
	for _, mixed := range []bool{false, true} {
		st := writeManySegments(t, segs, mixed)
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("mixed=%v/parallelism=%d", mixed, par), func(t *testing.T) {
				st.Parallelism = par
				limit := 2 + st.ResolveParallelism()
				if mixed {
					limit += 2 // the v1 and footer-less segments open eagerly
				}
				checkPeak := func(what string, peak int) {
					t.Helper()
					if peak > limit {
						t.Errorf("%s: %d segment files open at once, want <= %d", what, peak, limit)
					}
				}

				got, peak := readAll(t, st, func(sink Sink) error { return st.StreamSession(manySession, sink) })
				sameEvents(t, "StreamSession", got, oracle(segs, Filter{}))
				checkPeak("StreamSession", peak)

				var rep *SalvageReport
				got, peak = readAll(t, st, func(sink Sink) (err error) {
					rep, err = st.SalvageSession(manySession, sink)
					return err
				})
				sameEvents(t, "SalvageSession", got, oracle(segs, Filter{}))
				checkPeak("SalvageSession", peak)
				if rep.Damaged() != 0 || len(rep.Segments) != manySegs {
					t.Fatalf("salvage report of a clean store:\n%s", rep)
				}

				for name, f := range filters {
					var qs QueryStats
					got, peak = readAll(t, st, func(sink Sink) (err error) {
						qs, err = st.QuerySession(manySession, f, sink)
						return err
					})
					sameEvents(t, "QuerySession "+name, got, oracle(segs, f))
					checkPeak("QuerySession "+name, peak)
					checkPeak("QueryStats.PeakOpen "+name, qs.PeakOpen)
					if peak > qs.PeakOpen {
						t.Errorf("QuerySession %s: %d files sampled open, PeakOpen says %d", name, peak, qs.PeakOpen)
					}
					if qs.Segments != manySegs || qs.RecordsMatched != len(got) {
						t.Errorf("QuerySession %s: stats %+v for %d events", name, qs, len(got))
					}
				}
			})
		}
	}
}

// rewriteFooter replaces the footer index of a v2 segment file.
func rewriteFooter(t *testing.T, path string, blocks []BlockInfo, records int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := blocks[len(blocks)-1]
	data = data[:last.Offset+5+int64(last.Len)]
	body := appendFooterBody(nil, blocks, records)
	data = append(data, frameFooter)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(body)))
	data = append(data, body...)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(body)))
	data = append(data, footerTrailerMagic...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSessionReadsFooterBoundDisagrees covers a footer whose first
// block claims a later MinTime than the block holds: admission by that
// bound would emit the segment's first record out of order. The strict
// read fails it as a bad footer before emitting anything out of order,
// and salvage, which checks the first block against the footer before
// trusting it, opens the segment eagerly and recovers every record in
// order.
func TestSessionReadsFooterBoundDisagrees(t *testing.T) {
	segs := sessionEvents(31, 6, 600)
	st := writeSessionSegmentsFormat(t, "run", segs, FormatV2)
	st.BlockRecords = 16
	for i, evs := range segs {
		sw, err := st.WriteSegment("run", i)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			sw.Observe(e)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	path := st.segPath("run", 3)
	blocks := footerOf(t, path)
	// Past all of segment 4, so a merge that trusted the bound would emit
	// segment 4 before segment 3's first record.
	blocks[0].MinTime = segs[4][len(segs[4])-1].Time
	blocks[0].MaxTime = max(blocks[0].MaxTime, blocks[0].MinTime)
	rewriteFooter(t, path, blocks, len(segs[3]))

	for _, par := range []int{1, 4} {
		st.Parallelism = par
		var col Collector
		if err := st.StreamSession("run", &col); !errors.Is(err, ErrBadFooter) {
			t.Fatalf("parallelism %d: StreamSession err = %v, want ErrBadFooter", par, err)
		}
		if !col.Trace.sortedByTime() {
			t.Fatalf("parallelism %d: StreamSession emitted out of order before failing", par)
		}
		col = Collector{}
		rep, err := st.SalvageSession("run", &col)
		if err != nil {
			t.Fatal(err)
		}
		sameEvents(t, "SalvageSession", col.Trace.Events, oracle(segs, Filter{}))
		if rep.Damaged() != 1 || rep.Segments[3].Cause != "bad-footer" {
			t.Fatalf("salvage report:\n%s", rep)
		}
	}
}
