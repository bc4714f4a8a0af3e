package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeLog creates a fresh single-segment log of n deterministic
// records and returns its directory plus the framed size of one record.
func writeLog(t *testing.T, n int) (string, int) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := l.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, len(AppendRecord(nil, mkRecord(0)))
}

// writeOldLayout writes a log the way segments were written before
// they were preallocated: each segment file holds its frames appended
// back to back and nothing else. segs[i] lists segment i+1's records.
func writeOldLayout(t *testing.T, segs ...[]Record) string {
	t.Helper()
	dir := t.TempDir()
	for i, recs := range segs {
		var data []byte
		for _, r := range recs {
			data = AppendRecord(data, r)
		}
		if err := os.WriteFile(segFile(dir, uint64(i+1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// segFile names segment seq of the log in dir.
func segFile(dir string, seq uint64) string {
	return (&Log{dir: dir}).segPath(seq)
}

// zeroFrom overwrites a file with zeros from off to its end: a crash
// image in which the writes past off never reached the disk.
func zeroFrom(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clear(data[off:])
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// records builds mkRecord(0..n-1).
func records(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = mkRecord(i)
	}
	return out
}

// checkRecovered asserts the recovered log's record count, its
// quarantine sidecar's exact bytes (none when want is empty), that the
// active segment is filled to SegmentBytes and zero past its logical
// end, and that re-ingesting records from the first lost one onward
// leaves every record of mkRecord(0..n-1) exactly once.
func checkRecovered(t *testing.T, name string, l *Log, dir string, n, wantRecords int, wantQuarantine []byte) {
	t.Helper()
	st := l.Stats()
	if st.Records != uint64(wantRecords) {
		t.Fatalf("%s: recovered %d records, want %d", name, st.Records, wantRecords)
	}
	if st.QuarantinedBytes != int64(len(wantQuarantine)) {
		t.Fatalf("%s: quarantined %d bytes, want %d", name, st.QuarantinedBytes, len(wantQuarantine))
	}
	q, qerr := os.ReadFile(filepath.Join(dir, "seg-00000001.quarantine"))
	if len(wantQuarantine) == 0 {
		if qerr == nil {
			t.Fatalf("%s: unexpected quarantine file", name)
		}
	} else if qerr != nil || !bytes.Equal(q, wantQuarantine) {
		t.Fatalf("%s: quarantine file: err=%v\n got %x\nwant %x", name, qerr, q, wantQuarantine)
	}
	data, err := os.ReadFile(segFile(dir, st.CurrentSeq))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != l.opts.SegmentBytes {
		t.Fatalf("%s: active segment holds %d bytes, want %d", name, len(data), l.opts.SegmentBytes)
	}
	if end := l.segs[len(l.segs)-1].bytes; contentEnd(data[end:]) != 0 {
		t.Fatalf("%s: nonzero bytes past the logical end %d", name, end)
	}

	// Re-ingest: the producer retransmits from the first
	// unacknowledged record. Every record must appear exactly once.
	for i := wantRecords; i < n; i++ {
		if err := l.Append(mkRecord(i)); err != nil {
			t.Fatalf("%s: re-append: %v", name, err)
		}
	}
	seen := map[int64]int{}
	count := 0
	if err := l.Scan(func(r Record) error {
		if want := mkRecord(count); r.T != want.T || !sameBits(r.Values, want.Values) {
			t.Fatalf("%s: record %d mismatch after recovery", name, count)
		}
		seen[r.T]++
		count++
		return nil
	}); err != nil {
		t.Fatalf("%s: scan: %v", name, err)
	}
	if count != n {
		t.Fatalf("%s: %d records after re-ingest, want %d", name, count, n)
	}
	for ts, c := range seen {
		if c != 1 {
			t.Fatalf("%s: record T=%d counted %d times", name, ts, c)
		}
	}
}

// TestRecoveryEveryTruncationOffset simulates a torn final write at
// EVERY byte offset of the last record: the segment is preallocated,
// so a write cut at a byte leaves zeros past it. Recovery must keep
// every complete record, quarantine exactly the torn bytes (the frame's
// prefix through its last nonzero byte: the zeros after it are
// indistinguishable from the fill), zero them in place, and leave the
// log appendable so re-ingest of the lost record resumes without
// double-counting.
func TestRecoveryEveryTruncationOffset(t *testing.T) {
	const n = 5
	_, frameLen := writeLog(t, n)
	frame := AppendRecord(nil, mkRecord(n-1))
	total := int64(n * frameLen) // the logical end
	tailStart := total - int64(frameLen)

	for cut := tailStart; cut <= total; cut++ {
		dir, _ := writeLog(t, n)
		zeroFrom(t, segFile(dir, 1), cut)
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		// Zeros past the cut that the frame held anyway leave it whole.
		wantRecords := n - 1
		var wantQuarantine []byte
		if contentEnd(frame[cut-tailStart:]) == 0 {
			wantRecords = n
		} else {
			wantQuarantine = frame[:contentEnd(frame[:cut-tailStart])]
		}
		checkRecovered(t, fmt.Sprintf("cut %d", cut), l, dir, n, wantRecords, wantQuarantine)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryEveryTruncationOffsetOldLayout is the same torn write on
// a segment written before preallocation, where a crash cuts the file
// itself: every complete record loads, the torn tail (through the
// file's end) is quarantined byte for byte, the segment is zeroed and
// filled from there, and re-ingest continues in the new layout.
func TestRecoveryEveryTruncationOffsetOldLayout(t *testing.T) {
	const n = 5
	probe := writeOldLayout(t, records(n))
	full, err := os.ReadFile(segFile(probe, 1))
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(full))
	tailStart := total - int64(len(AppendRecord(nil, mkRecord(n-1))))

	for cut := tailStart; cut <= total; cut++ {
		dir := writeOldLayout(t, records(n))
		if err := os.Truncate(segFile(dir, 1), cut); err != nil {
			t.Fatalf("cut %d: truncate: %v", cut, err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		wantRecords, wantQuarantine := n-1, full[tailStart:cut]
		if cut == total {
			wantRecords, wantQuarantine = n, nil // clean boundary: nothing torn
		}
		checkRecovered(t, fmt.Sprintf("old-layout cut %d", cut), l, dir, n, wantRecords, wantQuarantine)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryTornHeader tears inside the 8-byte frame header (shorter
// than any decodable prefix), in both layouts, and checks the tail
// quarantines cleanly.
func TestRecoveryTornHeader(t *testing.T) {
	dir, frame := writeLog(t, 3)
	zeroFrom(t, segFile(dir, 1), int64(2*frame+5)) // five header bytes of record 3
	head := AppendRecord(nil, mkRecord(2))[:5]
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, "preallocated", l, dir, 3, 2, head[:contentEnd(head)])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	dir = writeOldLayout(t, records(3))
	if err := os.Truncate(segFile(dir, 1), int64(2*frame+5)); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); st.Records != 2 || st.QuarantinedBytes != 5 {
		t.Fatalf("recovered stats %+v, want 2 records / 5 quarantined bytes", st)
	}
}

// sectorRecord is a record whose frame spans several 512-byte sectors
// and has no zero byte at all, unless zeroRun > 0 puts that many 0.0
// values (8 zero bytes each) in its middle.
func sectorRecord(i, zeroRun int) Record {
	vals := make([]float64, 256)
	for j := range vals {
		vals[j] = 1.1 + float64(i*len(vals)+j)
	}
	for j := 64; j < 64+zeroRun; j++ {
		vals[j] = 0
	}
	return Record{T: int64(i), Values: vals}
}

// TestRecoveryZeroSector: a frame whose bytes are all present except
// one aligned 512-byte sector reads as torn — the sector's write never
// landed — and is quarantined, while a whole frame that legitimately
// holds an all-zero sector (a run of 0.0 readings) verifies and stays.
func TestRecoveryZeroSector(t *testing.T) {
	const n = 3
	build := func(zeroRun int) (string, []byte, int64) {
		dir := t.TempDir()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := l.Append(sectorRecord(i, zeroRun)); err != nil {
				t.Fatal(err)
			}
		}
		end := l.Stats().Bytes
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, AppendRecord(nil, sectorRecord(n-1, zeroRun)), end
	}

	// A run of 0.0 values spanning a whole aligned sector: still valid.
	dir, frame, end := build(140)
	start := end - int64(len(frame))
	zeroSector := false
	for s := (start + sectorSize - 1) / sectorSize * sectorSize; s+sectorSize <= end; s += sectorSize {
		zeroSector = zeroSector || bytes.Equal(frame[s-start:s-start+sectorSize], zeros[:sectorSize])
	}
	if !zeroSector {
		t.Fatal("the zero run does not cover an aligned sector; the check is vacuous")
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Records != n || st.QuarantinedBytes != 0 {
		t.Fatalf("whole frame with a zero sector: stats %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The same frame position with one sector's write lost: torn.
	dir, frame, end = build(0)
	start = end - int64(len(frame))
	sector := (start + sectorSize - 1) / sectorSize * sectorSize
	data, err := os.ReadFile(segFile(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	clear(data[sector : sector+sectorSize])
	if err := os.WriteFile(segFile(dir, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, Options{}); err != nil {
		t.Fatalf("open over a frame with a lost sector: %v", err)
	}
	defer l.Close()
	if st := l.Stats(); st.Records != n-1 || st.QuarantinedBytes != int64(len(frame)) || st.Bytes != start {
		t.Fatalf("lost sector: stats %+v, want %d records, %d quarantined, logical end %d", st, n-1, len(frame), start)
	}
	q, err := os.ReadFile(filepath.Join(dir, "seg-00000001.quarantine"))
	if err != nil || !bytes.Equal(q, data[start:end]) {
		t.Fatalf("quarantine does not hold the torn frame byte for byte: %v", err)
	}
	if err := l.Append(sectorRecord(n-1, 0)); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := l.Scan(func(r Record) error {
		if want := sectorRecord(count, 0); r.T != want.T || !sameBits(r.Values, want.Values) {
			t.Fatalf("record %d mismatch after re-append", count)
		}
		count++
		return nil
	}); err != nil || count != n {
		t.Fatalf("scan after re-append: %d records, err %v", count, err)
	}
}

// TestRecoveryLostSectorBetweenFrames: several frames written after
// the last sync, and the crash loses the one sector that held the end
// of one frame and the header of the next while later frames landed.
// The first frame fails its checksum with no whole aligned sector
// inside it, but the piece of it in the lost sector is all zero, so it
// is torn, not corrupt: the log opens with the records before it, and
// everything from it through the last nonzero byte is quarantined.
func TestRecoveryLostSectorBetweenFrames(t *testing.T) {
	const n = 6
	row := func(i int) Record {
		vals := make([]float64, 70)
		for j := range vals {
			vals[j] = 1.1 + float64(i*len(vals)+j)
		}
		return Record{T: int64(i), Values: vals}
	}
	frame := len(AppendRecord(nil, row(0)))
	if frame <= sectorSize || frame >= 2*sectorSize {
		t.Fatalf("frame of %d bytes: the lost sector must straddle exactly two frames", frame)
	}
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := l.Append(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The sector after the first boundary inside frame 1 holds frame 1's
	// end and frame 2's header.
	sector := (frame + sectorSize) / sectorSize * sectorSize
	if sector <= frame || sector >= 2*frame || sector+sectorSize < 2*frame+frameHeaderSize {
		t.Fatalf("sector %d does not hold frame 1's end and frame 2's header", sector)
	}
	data, err := os.ReadFile(segFile(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	clear(data[sector : sector+sectorSize])
	if err := os.WriteFile(segFile(dir, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, Options{}); err != nil {
		t.Fatalf("open over a lost sector between frames: %v", err)
	}
	defer l.Close()
	content := contentEnd(data)
	if st := l.Stats(); st.Records != 1 || st.Bytes != int64(frame) || st.QuarantinedBytes != int64(content-frame) {
		t.Fatalf("lost sector: stats %+v, want 1 record, logical end %d, %d quarantined", st, frame, content-frame)
	}
	q, err := os.ReadFile(filepath.Join(dir, "seg-00000001.quarantine"))
	if err != nil || !bytes.Equal(q, data[frame:content]) {
		t.Fatalf("quarantine does not hold the torn frames byte for byte: %v", err)
	}
	for i := 1; i < n; i++ {
		if err := l.Append(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	if err := l.Scan(func(r Record) error {
		if want := row(count); r.T != want.T || !sameBits(r.Values, want.Values) {
			t.Fatalf("record %d mismatch after re-append", count)
		}
		count++
		return nil
	}); err != nil || count != n {
		t.Fatalf("scan after re-append: %d records, err %v", count, err)
	}
}

// TestOldLayoutContinues opens a log written before preallocation —
// two segments, appended and never filled — and checks it recovers
// every record, fills its final segment from the logical end, continues
// in the new layout, and reopens with everything.
func TestOldLayoutContinues(t *testing.T) {
	frame := len(AppendRecord(nil, mkRecord(0)))
	opts := Options{SegmentBytes: int64(4 * frame)}
	recs := records(7)
	dir := writeOldLayout(t, recs[:4], recs[4:6])
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Records != 6 || st.Segments != 2 || st.Bytes != int64(6*frame) {
		t.Fatalf("old layout recovered %+v", st)
	}
	info, err := os.Stat(segFile(dir, 2))
	if err != nil || info.Size() != opts.SegmentBytes {
		t.Fatalf("old-layout final segment not filled to %d bytes: %v %v", opts.SegmentBytes, info, err)
	}
	for i := 6; i < 12; i++ {
		if err := l.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); st.Records != 12 || st.Segments != 3 || st.QuarantinedBytes != 0 {
		t.Fatalf("reopened stats %+v", st)
	}
	count := 0
	if err := l.Scan(func(r Record) error {
		if want := mkRecord(count); r.T != want.T || !sameBits(r.Values, want.Values) {
			t.Fatalf("record %d mismatch", count)
		}
		count++
		return nil
	}); err != nil || count != 12 {
		t.Fatalf("scanned %d records, err %v", count, err)
	}
}

// TestOpenRejectsTornNonFinalSegmentOldLayout: a non-final segment
// written before preallocation and cut short by its file's end is
// corruption, as a torn frame anywhere but the final segment is.
func TestOpenRejectsTornNonFinalSegmentOldLayout(t *testing.T) {
	recs := records(5)
	dir := writeOldLayout(t, recs[:2], recs[2:4], recs[4:])
	info, err := os.Stat(segFile(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segFile(dir, 1), info.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over torn old-layout non-final segment: err=%v, want ErrCorrupt", err)
	}
}
