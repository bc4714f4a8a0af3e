// Package wal implements the per-shard append-only write-ahead window
// log: every accepted ingest row is journaled as a checksummed,
// length-prefixed record BEFORE it mutates stream state, so a crashed
// server rebuilds its reordering buffers and window rings
// bitwise-identically by replaying the log through the same stage graph
// (internal/pipeline.Replay). Logs are segmented with bounded
// retention; recovery quarantines a torn tail on the final segment and
// fails loudly on corruption anywhere else.
package wal

import (
	"errors"
	"fmt"
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
)

// Options tunes one shard's log. The zero value is usable.
type Options struct {
	// SegmentBytes rotates the active segment once it would exceed this
	// size; 0 defaults to 1 MiB. A record larger than the limit still
	// lands whole in a fresh segment.
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
	// Bytes is the total framed bytes across retained segments.
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
	bytes   int64
	records uint64
}

// Log is one shard's write-ahead log. It is not safe for concurrent
// use; the owner (e.g. the server's per-shard ingest lock) serializes
// access, matching the single-writer stream state it journals for.
type Log struct {
	dir         string
	opts        Options
	f           *os.File
	segs        []segment // ascending seq; last is active
	scratch     []byte
	quarantined int64
	retired     uint64
}

// Open opens (or creates) the log rooted at dir and runs recovery:
// every retained segment is scanned and checksum-verified. A torn tail
// on the final segment — the signature of a crash mid-append — is moved
// to a .quarantine sidecar and clipped; a torn or corrupt record
// anywhere else is refused with an error wrapping ErrCorrupt, because
// only the last write in the log can legitimately be incomplete.
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
	l := &Log{dir: dir, opts: opts}
	for i, seq := range seqs {
		seg, qerr := l.recoverSegment(seq, i == len(seqs)-1)
		if qerr != nil {
			return nil, qerr
		}
		l.segs = append(l.segs, seg)
	}
	cur := l.segs[len(l.segs)-1]
	f, err := os.OpenFile(l.segPath(cur.seq), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open active segment: %w", err)
	}
	l.f = f
	return l, nil
}

// recoverSegment scans one segment, verifying every frame. On the final
// segment a torn tail is quarantined and clipped; elsewhere it is
// corruption.
func (l *Log) recoverSegment(seq uint64, last bool) (segment, error) {
	path := l.segPath(seq)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		data = nil
	} else if err != nil {
		return segment{}, fmt.Errorf("wal: read %s: %w", path, err)
	}
	seg := segment{seq: seq}
	off := 0
	for off < len(data) {
		_, n, derr := DecodeRecord(data[off:])
		if derr == nil {
			off += n
			seg.records++
			continue
		}
		if last && errors.Is(derr, ErrTorn) {
			if qerr := l.quarantine(seq, data[off:]); qerr != nil {
				return segment{}, qerr
			}
			if qerr := os.Truncate(path, int64(off)); qerr != nil {
				return segment{}, fmt.Errorf("wal: clip torn tail of %s: %w", path, qerr)
			}
			break
		}
		if errors.Is(derr, ErrTorn) {
			derr = fmt.Errorf("%w: non-final segment ends mid-record: %v", ErrCorrupt, derr)
		}
		return segment{}, fmt.Errorf("wal: segment %s offset %d: %w", path, off, derr)
	}
	seg.bytes = int64(off)
	return seg, nil
}

// quarantine preserves torn-tail bytes in the segment's sidecar file so
// forensics can inspect what the crash clipped.
func (l *Log) quarantine(seq uint64, tail []byte) error {
	qpath := strings.TrimSuffix(l.segPath(seq), segSuffix) + quarantineSuffix
	qf, err := os.OpenFile(qpath, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open quarantine %s: %w", qpath, err)
	}
	_, werr := qf.Write(tail)
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

// Append journals one record to the active segment, rotating first if
// the segment is full. It returns once the bytes are handed to the
// kernel; call Sync to force them to stable storage.
func (l *Log) Append(r Record) error {
	l.scratch = AppendRecord(l.scratch[:0], r)
	cur := &l.segs[len(l.segs)-1]
	if cur.bytes > 0 && cur.bytes+int64(len(l.scratch)) > l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
		cur = &l.segs[len(l.segs)-1]
	}
	n, err := l.f.Write(l.scratch)
	cur.bytes += int64(n)
	if err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	cur.records++
	appendsTotal.Inc()
	bytesTotal.Add(uint64(n))
	return nil
}

// rotate seals the active segment, starts the next one, and applies
// retention.
func (l *Log) rotate() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	next := l.segs[len(l.segs)-1].seq + 1
	f, err := os.OpenFile(l.segPath(next), os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment %d: %w", next, err)
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

// Sync forces journaled bytes to stable storage.
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
// a non-nil error from fn stops the scan. Recovery at Open has already
// verified the retained frames, so any decode failure here reports
// external tampering since Open.
func (l *Log) Scan(fn func(Record) error) error {
	for _, seg := range l.segs {
		data, err := os.ReadFile(l.segPath(seg.seq))
		if errors.Is(err, fs.ErrNotExist) && seg.bytes == 0 {
			continue
		}
		if err != nil {
			return fmt.Errorf("wal: scan segment %d: %w", seg.seq, err)
		}
		off := 0
		for off < len(data) {
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

// Dir returns the directory the log lives in.
func (l *Log) Dir() string { return l.dir }

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
