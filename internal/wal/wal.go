// Package wal implements the per-shard write-ahead window log: every
// accepted ingest row is journaled as a checksummed, length-prefixed
// record BEFORE it mutates stream state, so a crashed server rebuilds
// its reordering buffers and window rings bitwise-identically by
// replaying the log through the same stage graph
// (internal/pipeline.Replay). Segments are created at their full size,
// zero-filled and synced once, and records are written in place at the
// logical end, so a record's sync flushes data blocks only. Logs are
// segmented with bounded retention; recovery quarantines a torn tail on
// the final segment and fails loudly on corruption anywhere else.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	segPrefix = "seg-"
	segSuffix = ".wal"
	// quarantineSuffix marks the sidecar file holding torn-tail bytes
	// clipped from a segment during recovery.
	quarantineSuffix = ".quarantine"
	// sectorSize is the write unit a crash can leave unwritten inside a
	// frame: an aligned all-zero sector marks the frame torn.
	sectorSize = 512
)

// zeros is the block segments are filled from and tails compared with.
var zeros [64 << 10]byte

// Options tunes one shard's log. The zero value is usable.
type Options struct {
	// SegmentBytes is the size every segment is created at, zero-filled,
	// and the active segment rotates once a record would end past it; 0
	// defaults to 1 MiB. A record larger than the limit still lands
	// whole in a fresh segment, growing it.
	SegmentBytes int64
	// Retain caps how many segments are kept; once exceeded, the oldest
	// segments (and their quarantine sidecars) are deleted. 0 keeps
	// everything. Retention bounds replay: recovery reconstructs state
	// from the retained horizon only.
	Retain int
}

// Stats is a point-in-time accounting snapshot of one log.
type Stats struct {
	// Segments is the number of retained segments, the active one
	// included.
	Segments int `json:"segments"`
	// Bytes is the total framed bytes across retained segments: their
	// logical ends, not the zero-filled file sizes.
	Bytes int64 `json:"bytes"`
	// Records is the total records across retained segments.
	Records uint64 `json:"records"`
	// QuarantinedBytes counts torn-tail bytes clipped at the last Open.
	QuarantinedBytes int64 `json:"quarantined_bytes"`
	// Retired counts segments deleted by retention since Open.
	Retired uint64 `json:"retired"`
	// OldestSeq and CurrentSeq bound the retained segment sequence.
	OldestSeq uint64 `json:"oldest_seq"`
	// CurrentSeq is the sequence number of the active segment.
	CurrentSeq uint64 `json:"current_seq"`
}

// segment is one on-disk log file and its recovered accounting.
type segment struct {
	seq     uint64
	bytes   int64 // logical end: the frames end here, zeros follow
	records uint64
}

// file is the I/O a Log does on its active segment. *os.File is the
// only production implementation; tests substitute failing ones.
type file interface {
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Close() error
}

// openSegment opens a segment file for writes in place.
func openSegment(path string, flag int) (file, error) {
	return os.OpenFile(path, os.O_WRONLY|flag, 0o644)
}

// Log is one shard's write-ahead log. It is not safe for concurrent
// use; the owner (e.g. the server's per-shard ingest lock) serializes
// access, matching the single-writer stream state it journals for.
type Log struct {
	dir  string
	opts Options
	f    file
	// open opens segment files: openSegment, or a test's faulty files.
	open func(path string, flag int) (file, error)
	segs []segment // ascending seq; last is active
	// dirty is the end of bytes a failed write may have left past the
	// active segment's logical end; 0 when everything past it is zero.
	dirty       int64
	scratch     []byte
	quarantined int64
	retired     uint64
}

// Open opens (or creates) the log rooted at dir and runs recovery:
// every retained segment is read up to its logical end and
// checksum-verified. A torn frame on the final segment — the signature
// of a crash mid-append — is copied to a .quarantine sidecar and zeroed
// in place; a torn or corrupt record anywhere else is refused with an
// error wrapping ErrCorrupt, because only the last write in the log can
// legitimately be incomplete. A final segment shorter than
// SegmentBytes (one written before segments were preallocated, or cut
// short by a crash during its fill) is zero-filled from its end.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 1 << 20
	}
	if opts.Retain < 0 {
		return nil, fmt.Errorf("wal: negative retention %d", opts.Retain)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", dir, err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		seqs = []uint64{1}
	}
	l := &Log{dir: dir, opts: opts, open: openSegment}
	for i, seq := range seqs {
		seg, qerr := l.recoverSegment(seq, i == len(seqs)-1)
		if qerr != nil {
			if l.f != nil {
				_ = l.f.Close() //albacheck:ignore errsilent the recovery error is the one worth reporting
			}
			return nil, qerr
		}
		l.segs = append(l.segs, seg)
	}
	return l, nil
}

// recoverSegment reads one segment and verifies every frame up to its
// logical end: the first offset from which the file holds only zeros.
// On the final segment a torn frame is quarantined and zeroed, the file
// is filled to SegmentBytes, and it becomes the active file; elsewhere
// a torn frame is corruption.
func (l *Log) recoverSegment(seq uint64, last bool) (segment, error) {
	path := l.segPath(seq)
	data, err := os.ReadFile(path)
	if err != nil && !(last && errors.Is(err, fs.ErrNotExist)) {
		return segment{}, fmt.Errorf("wal: read %s: %w", path, err)
	}
	seg := segment{seq: seq}
	content := contentEnd(data)
	off, tornEnd := 0, 0
	for off < content {
		_, n, derr := DecodeRecord(data[off:])
		if derr == nil {
			off += n
			seg.records++
			continue
		}
		if !errors.Is(derr, ErrTorn) && !tornFrame(data, off, content) {
			return segment{}, fmt.Errorf("wal: segment %s offset %d: %w", path, off, derr)
		}
		if !last {
			return segment{}, fmt.Errorf("wal: segment %s offset %d: %w: non-final segment ends mid-record: %v", path, off, ErrCorrupt, derr)
		}
		// A frame cut by the end of the file (a segment written before
		// preallocation) is torn through the file's end; one torn into
		// the zero tail, through the last nonzero byte.
		tornEnd = content
		if errors.Is(derr, ErrTorn) {
			tornEnd = len(data)
		}
		if qerr := l.quarantine(seq, data[off:tornEnd]); qerr != nil {
			return segment{}, qerr
		}
		break
	}
	seg.bytes = int64(off)
	if !last {
		return seg, nil
	}
	f, err := l.open(path, os.O_CREATE)
	if err != nil {
		return segment{}, fmt.Errorf("wal: open active segment: %w", err)
	}
	l.f = f
	size := int64(len(data))
	if tornEnd == 0 && size >= l.opts.SegmentBytes {
		return seg, nil
	}
	err = fill(f, seg.bytes, int64(tornEnd))
	if err == nil {
		err = fill(f, size, l.opts.SegmentBytes)
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		return segment{}, fmt.Errorf("wal: fill active segment %s: %w", path, err)
	}
	return seg, nil
}

// contentEnd returns the offset just past b's last nonzero byte.
func contentEnd(b []byte) int {
	end := len(b)
	for end > 0 {
		k := min(end, len(zeros))
		if !bytes.Equal(b[end-k:end], zeros[:k]) {
			break
		}
		end -= k
	}
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return end
}

// tornFrame reports whether the frame at off, which failed to decode,
// is an incomplete write rather than a corrupt one: its header never
// landed (a zero length prefix with content after it), it runs past
// content (the offset just past the segment's last nonzero byte), or
// one of its pieces is all zero, where the frame is split at sector
// boundaries and its partial first and last pieces count too (etcd's
// isTornEntry rule). A lost sector that held one frame's end and the
// next one's start leaves such a piece in the first frame even when
// later frames landed. A frame present in full that fails its checksum
// is corrupt.
func tornFrame(data []byte, off, content int) bool {
	length := binary.LittleEndian.Uint32(data[off:])
	if length == 0 {
		return true
	}
	if length > MaxRecordBytes {
		return false
	}
	end := off + frameHeaderSize + int(length)
	if end > content {
		return true
	}
	for s := off; s < end; {
		e := min((s/sectorSize+1)*sectorSize, end)
		if bytes.Equal(data[s:e], zeros[:e-s]) {
			return true
		}
		s = e
	}
	return false
}

// fill writes zeros over [from, to) of f.
func fill(f file, from, to int64) error {
	for from < to {
		n, err := f.WriteAt(zeros[:min(to-from, int64(len(zeros)))], from)
		if err != nil {
			return err
		}
		from += int64(n)
	}
	return nil
}

// quarantine preserves torn-tail bytes in the segment's sidecar file so
// forensics can inspect what the crash clipped. The copy is synced
// before recovery zeroes the bytes in place.
func (l *Log) quarantine(seq uint64, tail []byte) error {
	qpath := strings.TrimSuffix(l.segPath(seq), segSuffix) + quarantineSuffix
	qf, err := os.OpenFile(qpath, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open quarantine %s: %w", qpath, err)
	}
	_, werr := qf.Write(tail)
	if werr == nil {
		werr = qf.Sync()
	}
	if cerr := qf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("wal: quarantine tail: %w", werr)
	}
	l.quarantined += int64(len(tail))
	quarantinedTotal.Add(uint64(len(tail)))
	return nil
}

// Append journals one record at the active segment's logical end,
// rotating first if the record would end past SegmentBytes. It returns
// once the bytes are handed to the kernel; call Sync to force them to
// stable storage. A failed write leaves the logical end where it was,
// so the next record overwrites whatever part of this one landed.
func (l *Log) Append(r Record) error {
	cur := &l.segs[len(l.segs)-1]
	if l.dirty > cur.bytes {
		if err := fill(l.f, cur.bytes, l.dirty); err != nil {
			return fmt.Errorf("wal: append: clear failed write: %w", err)
		}
		l.dirty = 0
	}
	l.scratch = AppendRecord(l.scratch[:0], r)
	if cur.bytes > 0 && cur.bytes+int64(len(l.scratch)) > l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
		cur = &l.segs[len(l.segs)-1]
	}
	if _, err := l.f.WriteAt(l.scratch, cur.bytes); err != nil {
		l.dirty = cur.bytes + int64(len(l.scratch))
		return fmt.Errorf("wal: append: %w", err)
	}
	cur.bytes += int64(len(l.scratch))
	cur.records++
	appendsTotal.Inc()
	bytesTotal.Add(uint64(len(l.scratch)))
	return nil
}

// rotate syncs and seals the active segment, creates, fills and syncs
// the next one, and applies retention. The seal's sync is what makes
// the active segment's records durable, since Sync flushes only the
// segment active when it is called. A failure before the switch leaves
// the active segment in place and removes the partial new one, so the
// next Append retries; a partial file that could not be removed is
// truncated and filled again by that retry.
func (l *Log) rotate() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync segment before rotation: %w", err)
	}
	next := l.segs[len(l.segs)-1].seq + 1
	path := l.segPath(next)
	f, err := l.open(path, os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("wal: open segment %d: %w", next, err)
	}
	if err = fill(f, 0, l.opts.SegmentBytes); err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Close()       //albacheck:ignore errsilent the fill error is the one worth reporting
		_ = os.Remove(path) //albacheck:ignore errsilent a leftover partial segment is refilled by the retry, or recovers as an empty final segment
		return fmt.Errorf("wal: fill segment %d: %w", next, err)
	}
	if err := l.f.Close(); err != nil {
		_ = f.Close() //albacheck:ignore errsilent the seal error is the one worth reporting
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	l.f = f
	l.segs = append(l.segs, segment{seq: next})
	rotationsTotal.Inc()
	for l.opts.Retain > 0 && len(l.segs) > l.opts.Retain {
		old := l.segs[0]
		if err := os.Remove(l.segPath(old.seq)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("wal: retire segment %d: %w", old.seq, err)
		}
		qpath := strings.TrimSuffix(l.segPath(old.seq), segSuffix) + quarantineSuffix
		if err := os.Remove(qpath); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("wal: retire quarantine %d: %w", old.seq, err)
		}
		l.segs = l.segs[1:]
		l.retired++
		retiredTotal.Inc()
	}
	return nil
}

// Sync forces journaled bytes to stable storage. The segment's size
// and block map were made durable when it was filled, so this flushes
// data blocks only.
func (l *Log) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Close seals the active segment. The log must not be used afterwards.
func (l *Log) Close() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Scan streams every retained record, oldest segment first, through fn;
// a non-nil error from fn stops the scan. It reads each segment only up
// to its logical end. Recovery at Open has already verified the
// retained frames, so any decode failure here reports external
// tampering since Open.
func (l *Log) Scan(fn func(Record) error) error {
	var data []byte
	for _, seg := range l.segs {
		if seg.bytes == 0 {
			continue
		}
		data = append(data[:0], make([]byte, seg.bytes)...)
		if err := readPrefix(l.segPath(seg.seq), data); err != nil {
			return fmt.Errorf("wal: scan segment %d: %w", seg.seq, err)
		}
		for off := 0; off < len(data); {
			r, n, derr := DecodeRecord(data[off:])
			if derr != nil {
				return fmt.Errorf("wal: scan segment %d offset %d: %w", seg.seq, off, derr)
			}
			off += n
			replayedTotal.Inc()
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// readPrefix fills buf from the start of the file at path.
func readPrefix(path string, buf []byte) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	_, err = io.ReadFull(f, buf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats reports the log's current accounting.
func (l *Log) Stats() Stats {
	st := Stats{
		Segments:         len(l.segs),
		QuarantinedBytes: l.quarantined,
		Retired:          l.retired,
		OldestSeq:        l.segs[0].seq,
		CurrentSeq:       l.segs[len(l.segs)-1].seq,
	}
	for _, seg := range l.segs {
		st.Bytes += seg.bytes
		st.Records += seg.records
	}
	return st
}

// segPath names the on-disk file of a segment; fixed-width sequence
// numbers keep lexicographic and numeric order aligned.
func (l *Log) segPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix))
}

// listSegments returns the segment sequence numbers present in dir, in
// ascending order.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if perr != nil || seq == 0 {
			return nil, fmt.Errorf("wal: unrecognized segment file %s in %s", name, dir)
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for i := 1; i < len(seqs); i++ {
		if seqs[i] == seqs[i-1] {
			return nil, fmt.Errorf("wal: duplicate segment sequence %d in %s", seqs[i], dir)
		}
	}
	return seqs, nil
}
