package simnet

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"unsafe"

	"unclean/internal/netflow"
)

// External-memory flow synthesis. A day's traffic at paper scale is
// millions of ~90-byte records; holding a whole day (let alone a
// worker-pool batch of days) in memory is what capped the old pipeline.
// With FlowOptions.SpillBudget set, synthesis accumulates records until
// the budget is exceeded, sorts the run by start time (sortByTime), and
// spills it to a temp segment file in the compact netflow segment
// encoding. The day is then reconstructed as a k-way merge of its sorted
// runs — segment files stream back through buffered readers of at most
// 1 MiB, so peak memory per day is the budget plus one read buffer per
// run, regardless of day size.
//
// Byte-identity with the in-memory path: runs are spilled in generation
// order, each run is sorted stably, and the merge breaks timestamp ties
// by run index, which is exactly what one stable sort of the whole day
// produces. The record generators never observe the spilling (the RNG
// streams are untouched), so spilled and unspilled synthesis yield
// identical flow sequences.

// recordMemBytes approximates the in-memory footprint of one record for
// budget accounting.
var recordMemBytes = int(unsafe.Sizeof(netflow.Record{}))

// spillChunkRecords is the delivery granularity of a merged spilled day.
const spillChunkRecords = 8192

// spillBufBytes caps the segment writer's buffer and each segment
// reader's.
const spillBufBytes = 1 << 20

// daySpiller is one synthesis worker's spill state. A StreamFlows call
// keeps one per worker: the sort keys and the segment writer are reused
// for every run the worker spills, on every day it synthesizes, while
// paths, counts and err describe the current day only. A zero budget
// never spills; so does a nil spiller — the in-memory path.
type daySpiller struct {
	dir    string
	budget int
	keys   []timeKey
	bw     *bufio.Writer
	paths  []string
	counts []int
	err    error
}

// checkpoint is called between generator invocations: when the
// in-memory run exceeds the budget it is sorted, spilled, and the
// (emptied) buffer returned. On spill failure the error is recorded and
// synthesis continues unspilled; the caller surfaces sp.err at day end.
func (sp *daySpiller) checkpoint(out []netflow.Record) []netflow.Record {
	if sp == nil || sp.budget <= 0 || sp.err != nil {
		return out
	}
	if len(out)*recordMemBytes < sp.budget {
		return out
	}
	return sp.spill(out)
}

func (sp *daySpiller) spill(out []netflow.Record) []netflow.Record {
	if len(out) == 0 {
		return out
	}
	sp.keys = sortByTime(out, sp.keys)
	f, err := os.CreateTemp(sp.dir, "unclean-spill-*.seg")
	if err != nil {
		sp.err = fmt.Errorf("simnet: creating spill segment: %w", err)
		return out
	}
	if sp.bw == nil {
		sp.bw = bufio.NewWriterSize(f, spillBufBytes)
	} else {
		sp.bw.Reset(f)
	}
	var buf [netflow.SegmentRecordSize]byte
	for i := range out {
		netflow.EncodeSegmentRecord(buf[:], &out[i])
		if _, err := sp.bw.Write(buf[:]); err != nil {
			sp.err = fmt.Errorf("simnet: writing spill segment: %w", err)
			break
		}
	}
	if sp.err == nil {
		if err := sp.bw.Flush(); err != nil {
			sp.err = fmt.Errorf("simnet: writing spill segment: %w", err)
		}
	}
	if cerr := f.Close(); cerr != nil && sp.err == nil {
		sp.err = fmt.Errorf("simnet: closing spill segment: %w", cerr)
	}
	if sp.err != nil {
		os.Remove(f.Name())
		return out
	}
	sp.paths = append(sp.paths, f.Name())
	sp.counts = append(sp.counts, len(out))
	return out[:0]
}

// cleanup removes any spilled segment files.
func (sp *daySpiller) cleanup() {
	for _, p := range sp.paths {
		os.Remove(p)
	}
	sp.paths = nil
}

// dayRuns is one synthesized day as a sequence of sorted runs: zero or
// more on-disk segments (in spill order) plus the final in-memory run.
type dayRuns struct {
	mem    []netflow.Record
	paths  []string
	counts []int
}

// cleanup removes the day's segment files without delivering them.
func (r *dayRuns) cleanup() {
	for _, p := range r.paths {
		os.Remove(p)
	}
	r.paths = nil
}

// mergeBuffers is what delivering one spilled day leaves for the
// next: the chunk handed to fn and one segment reader per run.
type mergeBuffers struct {
	chunk   []netflow.Record
	readers []*bufio.Reader
}

// reader returns run i's segment reader reset onto f. Runs are opened
// in order, so a run past the readers kept so far is the next one; its
// reader is made at most the segment's size (and spillBufBytes).
func (b *mergeBuffers) reader(i int, f *os.File, segBytes int) *bufio.Reader {
	if i < len(b.readers) {
		b.readers[i].Reset(f)
		return b.readers[i]
	}
	br := bufio.NewReaderSize(f, min(spillBufBytes, segBytes))
	b.readers = append(b.readers, br)
	return br
}

// deliver merges the day's runs in time order and hands the records to
// fn in chunks of spillChunkRecords, reusing bufs (which may be empty)
// for the chunk and the segment readers; fn must not keep a chunk past
// its return. Segment files are removed once consumed. fn is called at
// least once, so empty days still announce themselves, matching the
// in-memory path.
func (r *dayRuns) deliver(bufs *mergeBuffers, fn func(records []netflow.Record) error) error {
	if len(r.paths) == 0 {
		return fn(r.mem)
	}
	curs := make([]*runCursor, 0, len(r.paths)+1)
	defer func() {
		for _, c := range curs {
			c.close()
		}
	}()
	for i, p := range r.paths {
		c, err := openSegmentCursor(p, r.counts[i], bufs, i)
		if err != nil {
			return err
		}
		curs = append(curs, c)
	}
	// The in-memory remainder is the youngest run, so it merges last on
	// timestamp ties — the order a whole-day stable sort would produce.
	curs = append(curs, newMemCursor(r.mem))

	if bufs.chunk == nil {
		bufs.chunk = make([]netflow.Record, 0, spillChunkRecords)
	}
	chunk := bufs.chunk[:0]
	delivered := false
	err := mergeCursors(curs, func(rec *netflow.Record) error {
		chunk = append(chunk, *rec)
		if len(chunk) == spillChunkRecords {
			if err := fn(chunk); err != nil {
				return err
			}
			delivered = true
			chunk = chunk[:0]
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(chunk) > 0 || !delivered {
		return fn(chunk)
	}
	return nil
}

// runCursor walks one sorted run: an in-memory slice, or a spill
// segment streamed through a buffered reader. key caches the current
// record's start time in Unix nanoseconds for the merge.
type runCursor struct {
	// In-memory run.
	recs []netflow.Record
	pos  int
	// Segment-backed run.
	path      string
	f         *os.File
	br        *bufio.Reader
	remaining int
	rec       netflow.Record

	key   int64
	valid bool
}

func newMemCursor(recs []netflow.Record) *runCursor {
	c := &runCursor{recs: recs, pos: -1}
	c.advance() // in-memory cursors never error
	return c
}

// openSegmentCursor opens run i's segment of count records, reading it
// through bufs' reader for that run.
func openSegmentCursor(path string, count int, bufs *mergeBuffers, i int) (*runCursor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("simnet: opening spill segment: %w", err)
	}
	br := bufs.reader(i, f, max(count, 1)*netflow.SegmentRecordSize)
	c := &runCursor{path: path, f: f, br: br, remaining: count}
	if err := c.advance(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// cur returns the cursor's current record; valid until the next advance.
func (c *runCursor) cur() *netflow.Record {
	if c.f != nil {
		return &c.rec
	}
	return &c.recs[c.pos]
}

// advance moves to the next record, clearing valid at run end.
func (c *runCursor) advance() error {
	if c.f == nil {
		c.pos++
		c.valid = c.pos < len(c.recs)
		if c.valid {
			c.key = c.recs[c.pos].First.UnixNano()
		}
		return nil
	}
	if c.remaining == 0 {
		c.valid = false
		return nil
	}
	buf, err := c.br.Peek(netflow.SegmentRecordSize)
	if err != nil {
		c.valid = false
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("simnet: reading spill segment %s: %w", c.path, err)
	}
	if err := netflow.DecodeSegmentRecord(buf, &c.rec); err != nil {
		c.valid = false
		return err
	}
	_, _ = c.br.Discard(netflow.SegmentRecordSize) // cannot fail: Peek buffered these bytes
	c.remaining--
	c.key = c.rec.First.UnixNano()
	c.valid = true
	return nil
}

// close releases a segment-backed cursor and deletes its file.
func (c *runCursor) close() {
	if c.f != nil {
		c.f.Close()
		os.Remove(c.path)
		c.f = nil
	}
	c.valid = false
}

// mergeCursors streams the union of the sorted runs to emit in time
// order, breaking timestamp ties by cursor index (run order). This is
// the k-way merge shared by cross-day merging (in-memory cursors) and
// spilled-day reconstruction (segment cursors). It is a binary min-heap
// over (start time, run index) pairs copied out of the cursors, so a
// comparison touches neither a cursor nor a time.Time.
func mergeCursors(curs []*runCursor, emit func(*netflow.Record) error) error {
	h := make([]mergeEntry, 0, len(curs))
	for i, c := range curs {
		if c.valid {
			h = append(h, mergeEntry{c.key, i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		c := curs[h[0].run]
		if err := emit(c.cur()); err != nil {
			return err
		}
		if err := c.advance(); err != nil {
			return err
		}
		if c.valid {
			h[0].key = c.key
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return nil
}

// mergeEntry is one live run in mergeCursors' heap.
type mergeEntry struct {
	key int64 // the run's current start time, Unix nanoseconds
	run int
}

func (a mergeEntry) less(b mergeEntry) bool {
	return a.key < b.key || a.key == b.key && a.run < b.run
}

// siftDown restores the heap order below h[i].
func siftDown(h []mergeEntry, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].less(h[l]) {
			m = r
		}
		if !h[m].less(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
