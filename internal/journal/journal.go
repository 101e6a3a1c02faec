// Package journal is the durable write-ahead log under the serving
// layer: an append-only, CRC-framed record stream that survives being
// killed at any byte.
//
// The format is versioned, little-endian, and checksummed end to end:
//
//	segment header (16 B): magic "FAJL" · u16 version · u8 type · u8 0 ·
//	                       u32 crc32c(first 8 bytes) · u32 0
//	record frame:          u32 bodyLen · u32 crc32c(body) · body
//	record body:           u8 kind · u64 unixMilli ·
//	                       6 × (u32 len · bytes): id, client, key,
//	                       error, request, output
//
// A journal is a directory of numbered segments ("00000001.wal", ...).
// Appends go to the highest-numbered segment and are durable before they
// are acknowledged. Concurrent appends share fsyncs (group commit): each
// writes its frame under the journal's lock, and one appender at a time
// fsyncs outside it on behalf of every frame written before that fsync
// began. Past SegmentBytes the writer rotates to a fresh segment.
// Compact atomically replaces the whole directory's history with a
// snapshot: the snapshot is written to a temp file, fsynced, renamed
// into place as a *base* segment (type 1), the directory is fsynced, and
// only then are the older segments unlinked — a crash at any point
// leaves either the old history or the new base, never neither. Replay
// starts at the newest base segment, so a crash between rename and
// unlink merely leaves dead files that the next Open removes.
//
// Replay is truncation-tolerant by construction: a torn tail — a
// partial frame from a writer killed mid-append, or a frame whose CRC
// does not match — ends replay at the last complete record. Open runs
// the same scan and truncates the torn bytes away so new appends never
// chain onto garbage. Replay never panics on hostile input; every
// allocation is bounded by the frame length limit before it is made.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	magic      = "FAJL"
	version    = 1
	headerLen  = 16
	frameLen   = 8 // bodyLen + crc
	segLog     = 0
	segBase    = 1
	segPattern = "%08d.wal"

	// maxBody bounds one record body (and with it every allocation the
	// decoder makes): larger than any journaled result, far smaller than
	// what a flipped length field could demand.
	maxBody = 1 << 27
)

// DefaultSegmentBytes is the rotation threshold when Options names none.
const DefaultSegmentBytes = 4 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errClosed = errors.New("journal: closed")

// Kind is a record's lifecycle transition.
type Kind uint8

const (
	Accepted Kind = iota + 1
	// Dispatched is no longer appended. Replay still decodes it from
	// journals written by older versions; abacusd's fold treats it as a
	// no-op, non-terminal transition.
	Dispatched
	Done
	Failed
	Cancelled
)

func (k Kind) valid() bool { return k >= Accepted && k <= Cancelled }

// Record is one journaled lifecycle transition.
type Record struct {
	Kind Kind
	// ID is the job the record concerns; Client its fairness identity.
	ID, Client string
	// Key is the client-supplied idempotency key (Accepted records).
	Key string
	// Error carries the failure or cancellation reason.
	Error string
	// Request is the JSON-encoded job request (Accepted records).
	Request []byte
	// Output is the job's rendered result bytes (Done records).
	Output []byte
	// UnixMilli timestamps the transition; informational only.
	UnixMilli int64
}

// Options shapes an opened journal; the zero value is usable.
type Options struct {
	// SegmentBytes rotates the active segment once it grows past this
	// bound (default DefaultSegmentBytes).
	SegmentBytes int64
	// NoSync skips the per-append fsync. Only tests and benchmarks that
	// do not care about durability should set it.
	NoSync bool
}

// Stats is a snapshot of a journal's counters.
type Stats struct {
	Appends      int64 // records durably appended
	AppendErrors int64 // appends that failed (hook, write, or fsync)
	Fsyncs       int64 // fsync calls issued (appends, rotations, compactions)
	Rotations    int64 // segment rotations
	Compactions  int64 // successful Compact calls
	Segments     int   // live segment files
	Bytes        int64 // total bytes across live segments
	// TruncatedBytes counts torn-tail bytes Open discarded.
	TruncatedBytes int64
}

// ReplayStats summarizes one Replay pass.
type ReplayStats struct {
	Records  int   // records delivered
	Segments int   // segments read
	Torn     bool  // replay ended at a torn or corrupt frame
	Dropped  int64 // bytes after the torn point, lost
}

// Journal is an open, appendable journal directory.
type Journal struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	seg     int   // active (highest) segment index
	lowSeg  int   // lowest live segment index
	size    int64 // active segment size, counting every written frame
	total   int64 // bytes across live segments other than the active one
	segSize map[int]int64
	opts    Options
	stats   Stats

	// Group commit. pending holds the frames written since the last
	// fsync began; syncing is set while one appender, the leader, fsyncs
	// the active segment outside mu; cond (on mu) wakes the appenders
	// waiting for that fsync. The active file never changes while
	// syncing is set or pending holds frames.
	pending *syncBatch
	syncing bool
	cond    sync.Cond
	// fsync makes the active segment's written frames durable; tests
	// wrap it to gate or fail a group fsync.
	fsync func(*os.File) error

	// before and after intercept appends for deterministic fault
	// injection (see SetHooks).
	before func(frame []byte) error
	after  func(appends int64)
}

// syncBatch is the group of frames one fsync makes durable.
type syncBatch struct {
	frames int   // frames written into the group
	done   bool  // the group's fsync has finished
	err    error // that fsync's result, shared by every frame in the group
}

// Open opens (creating if needed) the journal rooted at dir, removes
// debris from crashed compactions, and truncates any torn tail off the
// active segment so appends continue from the last durable record.
func Open(dir string, opts Options) (*Journal, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, opts: opts, segSize: map[int]int64{},
		pending: &syncBatch{}, fsync: (*os.File).Sync}
	j.cond.L = &j.mu
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	// Finish a crashed compaction: everything below the newest base
	// segment is dead history, and stale temp files are abandoned writes.
	start := 0
	for i, s := range segs {
		if s.base {
			start = i
		}
	}
	for _, s := range segs[:start] {
		os.Remove(s.path)
	}
	segs = segs[start:]
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}

	if len(segs) == 0 {
		j.seg, j.lowSeg = 1, 1
		if err := j.createSegmentLocked(1, segLog); err != nil {
			return nil, err
		}
		return j, nil
	}

	j.lowSeg = segs[0].idx
	for _, s := range segs[:len(segs)-1] {
		j.segSize[s.idx] = s.size
		j.total += s.size
	}
	active := segs[len(segs)-1]
	j.seg = active.idx
	valid, err := scanValidPrefix(active.path)
	if err != nil {
		return nil, err
	}
	if valid < headerLen {
		// The active segment's own header is corrupt: it holds no
		// recoverable records, so rewrite it fresh in place.
		j.stats.TruncatedBytes += active.size
		if err := j.createSegmentLocked(active.idx, segLog); err != nil {
			return nil, err
		}
		return j, nil
	}
	if valid < active.size {
		j.stats.TruncatedBytes += active.size - valid
		if err := os.Truncate(active.path, valid); err != nil {
			return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.size = valid
	return j, nil
}

// Dir returns the journal's root directory.
func (j *Journal) Dir() string { return j.dir }

// SetHooks installs fault-injection seams: before runs with the framed
// bytes ahead of every append (a non-nil error fails the append without
// touching the file); after runs — outside the journal's lock — once a
// record is durably on disk, with the running append count. Either may
// be nil. The chaos harness uses these for failing/slow journal I/O and
// kill-at-N-appends.
func (j *Journal) SetHooks(before func(frame []byte) error, after func(appends int64)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.before, j.after = before, after
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.stats
	st.Segments = j.seg - j.lowSeg + 1
	st.Bytes = j.total + j.size
	return st
}

// Append frames and writes one record to the active segment, rotating
// past the segment bound, and returns once the record is durable.
// Concurrent appends share fsyncs: the frame is written under the lock,
// then the appender waits for the first fsync that begins after its
// write, leading that fsync itself when no other appender is. Every
// append covered by a failed fsync fails with that fsync's error.
func (j *Journal) Append(r Record) error {
	frame := appendFrame(nil, r)
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return errClosed
	}
	if j.before != nil {
		if err := j.before(frame); err != nil {
			j.stats.AppendErrors++
			j.mu.Unlock()
			return err
		}
	}
	if _, err := j.f.Write(frame); err != nil {
		// A partial frame may be on disk; truncate back so a later append
		// cannot chain onto it (replay would drop everything after).
		j.f.Truncate(j.size)
		j.stats.AppendErrors++
		j.mu.Unlock()
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(frame))
	if !j.opts.NoSync {
		b := j.pending
		b.frames++
		for !b.done {
			if j.syncing {
				j.cond.Wait()
			} else {
				j.leadSync()
			}
		}
		if b.err != nil {
			j.stats.AppendErrors++
			j.mu.Unlock()
			return fmt.Errorf("journal: fsync: %w", b.err)
		}
	}
	j.stats.Appends++
	n := j.stats.Appends
	if j.size > j.opts.SegmentBytes {
		j.rotateLocked() // best effort: a failed rotation keeps appending to the oversized segment
	}
	after := j.after
	j.mu.Unlock()
	if after != nil {
		after(n)
	}
	return nil
}

// leadSync fsyncs the active segment for every frame written so far,
// releasing mu for the duration; frames written meanwhile join the next
// group. Called with mu held and no fsync in flight.
func (j *Journal) leadSync() {
	b := j.pending
	j.pending = &syncBatch{}
	j.syncing = true
	f := j.f
	j.mu.Unlock()
	err := j.fsync(f)
	j.mu.Lock()
	j.syncing = false
	j.stats.Fsyncs++
	j.settleLocked(b, err)
}

// settleLocked finishes a group with err and wakes its appenders (and
// anyone waiting for the in-flight fsync to end).
func (j *Journal) settleLocked(b *syncBatch, err error) {
	b.done, b.err = true, err
	j.cond.Broadcast()
}

// syncAllLocked waits out an in-flight fsync, then fsyncs any pending
// frames without releasing mu, so the active file holds no unsynced
// frame and no fsync is running when it returns. Rotation and Close call
// it before they let go of the active file.
func (j *Journal) syncAllLocked() error {
	for j.syncing {
		j.cond.Wait()
	}
	b := j.pending
	if b.frames == 0 || j.f == nil {
		return nil
	}
	j.pending = &syncBatch{}
	err := j.fsync(j.f)
	j.stats.Fsyncs++
	j.settleLocked(b, err)
	return err
}

// rotateLocked opens the next-numbered log segment as the append
// target, once every frame written to the current one is durable.
func (j *Journal) rotateLocked() error {
	if err := j.syncAllLocked(); err != nil {
		return err
	}
	if j.f == nil || j.size <= j.opts.SegmentBytes {
		return nil // closed, or another appender rotated while this one waited
	}
	if err := j.createSegmentLocked(j.seg+1, segLog); err != nil {
		return err
	}
	j.stats.Rotations++
	return nil
}

// createSegmentLocked writes a fresh segment header for index idx and
// makes it the active append target. Any previous active file is closed;
// its size moves into the history total (unless idx reuses its slot).
func (j *Journal) createSegmentLocked(idx, typ int) error {
	if j.f != nil {
		j.f.Close()
		if idx != j.seg {
			j.segSize[j.seg] = j.size
			j.total += j.size
		}
	}
	path := j.segPath(idx)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	hdr := segmentHeader(typ)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if !j.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("journal: %w", err)
		}
		j.stats.Fsyncs++
		if err := syncDir(j.dir); err != nil {
			f.Close()
			return err
		}
		j.stats.Fsyncs++
	}
	j.f = f
	j.seg = idx
	j.size = int64(len(hdr))
	return nil
}

// Compact atomically replaces the journal's whole history with the live
// records snapshot returns: they are written to a temp file, fsynced,
// renamed into place as a base segment, and only after the directory
// fsync are the older segments unlinked. Replay of a compacted journal
// starts at the base segment, so a crash anywhere in Compact leaves a
// replayable journal.
//
// snapshot runs under the journal's lock, after any in-flight fsync has
// finished and before any further append, so it must describe the
// state every record written so far leads to: the base supersedes them,
// and appends still waiting for their fsync return once the base is
// durable. snapshot must not call back into the journal.
func (j *Journal) Compact(snapshot func() []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.syncing {
		j.cond.Wait()
	}
	if j.f == nil {
		return errClosed
	}
	newIdx := j.seg + 1
	buf := segmentHeader(segBase)
	for _, r := range snapshot() {
		buf = appendFrame(buf, r)
	}
	tmp := j.segPath(newIdx) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	_, werr := f.Write(buf)
	if werr == nil && !j.opts.NoSync {
		werr = f.Sync()
		j.stats.Fsyncs++
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, j.segPath(newIdx))
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: compact: %w", werr)
	}
	if !j.opts.NoSync {
		if err := syncDir(j.dir); err != nil {
			return err
		}
		j.stats.Fsyncs++
	}
	// The base is durable; everything before it is now dead history, and
	// the appends waiting on an fsync are covered by it.
	b := j.pending
	j.pending = &syncBatch{}
	j.settleLocked(b, nil)
	j.f.Close()
	for idx := j.lowSeg; idx <= j.seg; idx++ {
		os.Remove(j.segPath(idx))
	}
	f, err = os.OpenFile(j.segPath(newIdx), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	j.f = f
	j.seg, j.lowSeg = newIdx, newIdx
	j.size = int64(len(buf))
	j.total = 0
	j.segSize = map[int]int64{}
	j.stats.Compactions++
	return nil
}

// TearTail appends a deliberately torn record — a valid frame header
// promising more bytes than follow — and syncs it. It exists for the
// chaos harness: a restart must shrug off exactly this shape of tail.
// The journal must not be appended to afterwards (the torn bytes would
// hide every later record from replay); tear, then die.
func (j *Journal) TearTail() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errClosed
	}
	frame := appendFrame(nil, Record{Kind: Failed, ID: "torn-by-chaos", Error: "deliberately torn final record"})
	if _, err := j.f.Write(frame[:frameLen+(len(frame)-frameLen)/2]); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close fsyncs any frames still waiting for it and closes the active
// segment. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	serr := j.syncAllLocked()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if serr != nil {
		return fmt.Errorf("journal: fsync: %w", serr)
	}
	return err
}

func (j *Journal) segPath(idx int) string {
	return filepath.Join(j.dir, fmt.Sprintf(segPattern, idx))
}

// Replay reads every record of the journal at dir, in append order,
// starting at the newest base segment. A torn or corrupt frame ends the
// replay at the last complete record (Torn and Dropped report it); a
// missing directory is an empty journal. fn's error aborts the replay
// and is returned as-is.
func Replay(dir string, fn func(Record) error) (ReplayStats, error) {
	var rs ReplayStats
	segs, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return rs, nil
		}
		return rs, err
	}
	start := 0
	for i, s := range segs {
		if s.base {
			start = i
		}
	}
	for _, seg := range segs[start:] {
		rs.Segments++
		b, err := os.ReadFile(seg.path)
		if err != nil {
			return rs, fmt.Errorf("journal: %w", err)
		}
		valid, torn, err := scanFrames(b, func(r Record) error {
			rs.Records++
			return fn(r)
		})
		if err != nil {
			return rs, err
		}
		if torn {
			// Records after a torn point — in this segment or a later one —
			// cannot be trusted to be complete; stop here.
			rs.Torn = true
			rs.Dropped = int64(len(b)) - valid
			for _, later := range segs[start:] {
				if later.idx > seg.idx {
					rs.Dropped += later.size
				}
			}
			return rs, nil
		}
	}
	return rs, nil
}

// segment is one journal file found on disk.
type segment struct {
	idx  int
	path string
	size int64
	base bool
}

// listSegments returns dir's segment files in ascending index order,
// with each one's header type. A file whose header is unreadable counts
// as a log segment (its replay will stop at offset 0).
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".wal") || e.IsDir() {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimSuffix(name, ".wal"))
		if err != nil || idx < 1 {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		s := segment{idx: idx, path: filepath.Join(dir, name), size: info.Size()}
		if hdr := readHeader(s.path); hdr == segBase {
			s.base = true
		}
		segs = append(segs, s)
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i].idx < segs[k].idx })
	return segs, nil
}

// segmentHeader builds a 16-byte segment header of the given type.
func segmentHeader(typ int) []byte {
	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, version)
	hdr = append(hdr, byte(typ), 0)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr[:8], castagnoli))
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	return hdr
}

// checkHeader validates a segment header, returning its type.
func checkHeader(b []byte) (typ int, ok bool) {
	if len(b) < headerLen || string(b[:4]) != magic {
		return 0, false
	}
	if binary.LittleEndian.Uint16(b[4:6]) != version {
		return 0, false
	}
	typ = int(b[6])
	if typ != segLog && typ != segBase || b[7] != 0 {
		return 0, false
	}
	if binary.LittleEndian.Uint32(b[8:12]) != crc32.Checksum(b[:8], castagnoli) {
		return 0, false
	}
	return typ, true
}

// readHeader reports the segment type of the file at path, or -1.
func readHeader(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return -1
	}
	defer f.Close()
	hdr := make([]byte, headerLen)
	if _, err := f.Read(hdr); err != nil {
		return -1
	}
	typ, ok := checkHeader(hdr)
	if !ok {
		return -1
	}
	return typ
}

// scanFrames walks the frames after the header, calling fn per decoded
// record. It returns the byte offset after the last valid frame, whether
// the scan stopped at a torn/corrupt frame, and fn's error if any.
func scanFrames(b []byte, fn func(Record) error) (valid int64, torn bool, err error) {
	if _, ok := checkHeader(b); !ok {
		return 0, true, nil
	}
	off := int64(headerLen)
	for {
		rest := b[off:]
		if len(rest) == 0 {
			return off, false, nil
		}
		if len(rest) < frameLen {
			return off, true, nil
		}
		n := int64(binary.LittleEndian.Uint32(rest[:4]))
		if n > maxBody || frameLen+n > int64(len(rest)) {
			return off, true, nil
		}
		body := rest[frameLen : frameLen+n]
		if binary.LittleEndian.Uint32(rest[4:8]) != crc32.Checksum(body, castagnoli) {
			return off, true, nil
		}
		rec, derr := decodeRecord(body)
		if derr != nil {
			// CRC-valid but structurally bad: written by a different
			// version or deliberately corrupted — stop, like a torn tail.
			return off, true, nil
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return off, false, err
			}
		}
		off += frameLen + n
	}
}

// scanValidPrefix returns the length of the valid prefix of the segment
// at path: header plus every complete frame.
func scanValidPrefix(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	valid, _, _ := scanFrames(b, nil)
	return valid, nil
}

var errCorruptRecord = errors.New("journal: corrupt record")

// appendFrame appends r's frame — length, CRC-32C, body — to dst.
func appendFrame(dst []byte, r Record) []byte {
	body := encodeRecord(r)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(body, castagnoli))
	return append(dst, body...)
}

// encodeRecord serializes a record body (without framing).
func encodeRecord(r Record) []byte {
	n := 9 + 6*4 + len(r.ID) + len(r.Client) + len(r.Key) + len(r.Error) + len(r.Request) + len(r.Output)
	b := make([]byte, 0, n)
	b = append(b, byte(r.Kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.UnixMilli))
	for _, s := range [6][]byte{[]byte(r.ID), []byte(r.Client), []byte(r.Key), []byte(r.Error), r.Request, r.Output} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return b
}

// decodeRecord parses a record body. Field lengths are validated against
// the remaining bytes before any allocation, so a hostile body cannot
// demand more memory than its own size.
func decodeRecord(body []byte) (Record, error) {
	var r Record
	if len(body) < 9 {
		return r, errCorruptRecord
	}
	r.Kind = Kind(body[0])
	if !r.Kind.valid() {
		return r, errCorruptRecord
	}
	r.UnixMilli = int64(binary.LittleEndian.Uint64(body[1:9]))
	rest := body[9:]
	var fields [6][]byte
	for i := range fields {
		if len(rest) < 4 {
			return r, errCorruptRecord
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return r, errCorruptRecord
		}
		fields[i] = rest[:n]
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return r, errCorruptRecord
	}
	r.ID = string(fields[0])
	r.Client = string(fields[1])
	r.Key = string(fields[2])
	r.Error = string(fields[3])
	// Copy the payloads: records must not alias the replay read buffer.
	if len(fields[4]) > 0 {
		r.Request = append([]byte(nil), fields[4]...)
	}
	if len(fields[5]) > 0 {
		r.Output = append([]byte(nil), fields[5]...)
	}
	return r, nil
}

// syncDir fsyncs a directory, making renames and unlinks in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: sync %s: %w", dir, err)
	}
	return nil
}
