package wal

import (
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// mkRecord builds a deterministic record with a few awkward payloads
// (NaN, negative zero, subnormal) so round-trip checks exercise bit
// patterns plain equality would miss.
func mkRecord(i int) Record {
	return Record{
		T: int64(i - 3), // negative timesteps exercise zigzag
		Values: []float64{
			float64(i) * 1.25,
			math.NaN(),
			math.Copysign(0, -1),
			math.SmallestNonzeroFloat64 * float64(i+1),
		},
	}
}

// sameBits compares two rows as IEEE-754 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	for i := 0; i < 10; i++ {
		buf = AppendRecord(buf, mkRecord(i))
	}
	buf = AppendRecord(buf, Record{T: math.MaxInt64, Values: nil})
	off, decoded := 0, 0
	for off < len(buf) {
		r, n, err := DecodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("decode at %d: %v", off, err)
		}
		if decoded < 10 {
			want := mkRecord(decoded)
			if r.T != want.T || !sameBits(r.Values, want.Values) {
				t.Fatalf("record %d mismatch: got %+v want %+v", decoded, r, want)
			}
		} else if r.T != math.MaxInt64 || len(r.Values) != 0 {
			t.Fatalf("sentinel record mismatch: %+v", r)
		}
		off += n
		decoded++
	}
	if decoded != 11 {
		t.Fatalf("decoded %d records, want 11", decoded)
	}
}

func TestLogAppendScan(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := l.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := l.Scan(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("scanned %d records, want %d", len(got), n)
	}
	for i, r := range got {
		want := mkRecord(i)
		if r.T != want.T || !sameBits(r.Values, want.Values) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	st := l.Stats()
	if st.Records != n || st.Segments != 1 || st.QuarantinedBytes != 0 {
		t.Fatalf("stats %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	frame := len(AppendRecord(nil, mkRecord(0)))
	// Three records per segment, keep at most two segments.
	l, err := Open(dir, Options{SegmentBytes: int64(3 * frame), Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := l.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments != 2 {
		t.Fatalf("retained %d segments, want 2 (stats %+v)", st.Segments, st)
	}
	if st.Retired == 0 {
		t.Fatalf("expected retired segments, stats %+v", st)
	}
	// The survivors must be the MOST RECENT records, contiguously.
	var ts []int64
	if err := l.Scan(func(r Record) error { ts = append(ts, r.T); return nil }); err != nil {
		t.Fatal(err)
	}
	if int(st.Records) != len(ts) {
		t.Fatalf("stats records %d vs scanned %d", st.Records, len(ts))
	}
	if ts[len(ts)-1] != mkRecord(n-1).T {
		t.Fatalf("last retained record T=%d, want %d", ts[len(ts)-1], mkRecord(n-1).T)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] != ts[i-1]+1 {
			t.Fatalf("retained records not contiguous: %v", ts)
		}
	}
	// No retired files left on disk beyond the retained pair.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("disk holds %d files, want 2: %v", len(entries), entries)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogReopenAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Records != 5 || st.QuarantinedBytes != 0 {
		t.Fatalf("recovered stats %+v", st)
	}
	for i := 5; i < 8; i++ {
		if err := l2.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	if err := l2.Scan(func(r Record) error {
		if want := mkRecord(count); r.T != want.T {
			t.Fatalf("record %d has T=%d, want %d", count, r.T, want.T)
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 8 {
		t.Fatalf("scanned %d records after reopen, want 8", count)
	}
}

func TestOpenRejectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "seg-00000001.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the SECOND record: corruption before the
	// tail must refuse to open, not silently drop the rest of the log.
	frame := len(AppendRecord(nil, mkRecord(0)))
	data[frame+frameHeaderSize+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over mid-log corruption: err=%v, want ErrCorrupt", err)
	}
}

// TestOpenRejectsTornNonFinalSegment tears the last frame of the FIRST
// segment (zeros from its middle to the segment's logical end, as a
// lost write leaves them); only the final segment may be torn, so this
// must read as corruption.
func TestOpenRejectsTornNonFinalSegment(t *testing.T) {
	dir := t.TempDir()
	frame := len(AppendRecord(nil, mkRecord(0)))
	l, err := Open(dir, Options{SegmentBytes: int64(2*frame + 10)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	end := l.segs[0].bytes
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	zeroFrom(t, filepath.Join(dir, "seg-00000001.wal"), end-int64(frame/2))
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over torn non-final segment: err=%v, want ErrCorrupt", err)
	}
}

// faultyFile wraps a segment file and fails the calls a test arms:
// shortWrites makes that many WriteAt calls write half their bytes and
// fail, failWrites fails WriteAt outright, failSync fails Sync. syncs
// counts the syncs that reached the file.
type faultyFile struct {
	file
	shortWrites int
	failWrites  bool
	failSync    bool
	syncs       int
}

var errInjected = errors.New("injected fault")

func (f *faultyFile) WriteAt(p []byte, off int64) (int, error) {
	if f.failWrites {
		return 0, errInjected
	}
	if f.shortWrites > 0 {
		f.shortWrites--
		n, err := f.file.WriteAt(p[:len(p)/2], off)
		if err == nil {
			err = errInjected
		}
		return n, err
	}
	return f.file.WriteAt(p, off)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		return errInjected
	}
	f.syncs++
	return f.file.Sync()
}

// reopenHolds closes l, reopens its directory and checks it holds
// exactly want, bitwise, with nothing quarantined.
func reopenHolds(t *testing.T, l *Log, want []Record) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(l.dir, l.opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Records != uint64(len(want)) || st.QuarantinedBytes != 0 {
		t.Fatalf("reopened stats %+v, want %d records and nothing quarantined", st, len(want))
	}
	i := 0
	if err := l2.Scan(func(r Record) error {
		if r.T != want[i].T || !sameBits(r.Values, want[i].Values) {
			t.Fatalf("record %d mismatch after reopen", i)
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestShortWriteKeepsLogicalEnd: a write that lands part of a frame
// and fails surfaces as an error and leaves Stats at the last whole
// frame; the next record overwrites the partial one (and the zeros
// clear what a shorter record does not cover), so the log reopens
// with every record that was appended whole.
func TestShortWriteKeepsLogicalEnd(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := records(3)
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	ff := &faultyFile{file: l.f, shortWrites: 1}
	l.f = ff
	long := sectorRecord(9, 0)
	if err := l.Append(long); !errors.Is(err, errInjected) {
		t.Fatalf("short write: err=%v, want the injected fault", err)
	}
	if st := l.Stats(); st != before {
		t.Fatalf("stats after a short write %+v, want %+v", st, before)
	}
	want = append(want, mkRecord(3))
	if err := l.Append(want[3]); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	reopenHolds(t, l, want)
}

// TestSyncErrorSurfaces: a failed sync is returned to the caller, the
// records appended before it stay counted, and the log reopens with
// all of them.
func TestSyncErrorSurfaces(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.f = &faultyFile{file: l.f, failSync: true}
	want := records(4)
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("sync: err=%v, want the injected fault", err)
	}
	if st := l.Stats(); st.Records != 4 || st.Bytes != int64(4*len(AppendRecord(nil, want[0]))) {
		t.Fatalf("stats after a failed sync %+v", st)
	}
	reopenHolds(t, l, want)
}

// TestFillErrorKeepsActiveSegment: a rotation whose new segment cannot
// be filled surfaces as an error, removes the partial segment, and
// leaves the active one in place with Stats unchanged; the next Append
// retries the rotation, and the log reopens with every record.
func TestFillErrorKeepsActiveSegment(t *testing.T) {
	frame := len(AppendRecord(nil, mkRecord(0)))
	l, err := Open(t.TempDir(), Options{SegmentBytes: int64(2 * frame)})
	if err != nil {
		t.Fatal(err)
	}
	want := records(6)
	for _, r := range want[:2] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	l.open = func(path string, flag int) (file, error) {
		f, err := openSegment(path, flag)
		return &faultyFile{file: f, failWrites: true}, err
	}
	if err := l.Append(want[2]); !errors.Is(err, errInjected) {
		t.Fatalf("append over a failing fill: err=%v, want the injected fault", err)
	}
	if st := l.Stats(); st != before {
		t.Fatalf("stats after a failed fill %+v, want %+v", st, before)
	}
	if _, err := os.Stat(l.segPath(2)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("partial segment left behind: %v", err)
	}
	l.open = openSegment
	for _, r := range want[2:] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments != 3 || st.Records != 6 {
		t.Fatalf("stats after the retried rotation %+v", st)
	}
	reopenHolds(t, l, want)
}

// TestRotationSyncsSealedSegment: Sync flushes only the active
// segment, so a rotation must sync the segment it seals, or records
// written to it since the last Sync would be counted but never
// flushed. A failed seal sync surfaces as an error before the next
// segment exists, leaves Stats unchanged, and the next Append retries.
func TestRotationSyncsSealedSegment(t *testing.T) {
	frame := len(AppendRecord(nil, mkRecord(0)))
	l, err := Open(t.TempDir(), Options{SegmentBytes: int64(2 * frame)})
	if err != nil {
		t.Fatal(err)
	}
	want := records(5)
	for _, r := range want[:2] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	sealed := &faultyFile{file: l.f, failSync: true}
	l.f = sealed
	before := l.Stats()
	if err := l.Append(want[2]); !errors.Is(err, errInjected) {
		t.Fatalf("rotation over a failing seal sync: err=%v, want the injected fault", err)
	}
	if st := l.Stats(); st != before {
		t.Fatalf("stats after a failed seal sync %+v, want %+v", st, before)
	}
	if _, err := os.Stat(l.segPath(2)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("next segment created before the seal synced: %v", err)
	}
	sealed.failSync = false
	if err := l.Append(want[2]); err != nil {
		t.Fatal(err)
	}
	if sealed.syncs != 1 || l.f == file(sealed) {
		t.Fatalf("sealed segment synced %d times before the switch, want 1", sealed.syncs)
	}
	active := &faultyFile{file: l.f}
	l.f = active
	for _, r := range want[3:] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if active.syncs != 1 || l.Stats().Segments != 3 {
		t.Fatalf("second seal: %d syncs, stats %+v", active.syncs, l.Stats())
	}
	reopenHolds(t, l, want)
}

// raceEnabled is set by race_test.go: under the race detector a file
// write allocates, so the allocation gate only holds without it
// (./verify.sh runs it in a separate, race-free step).
var raceEnabled bool

// TestAppendAllocs: once its scratch frame has grown, Append writes a
// record in place without allocating.
func TestAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("file writes allocate under the race detector")
	}
	l, err := Open(t.TempDir(), Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r := sectorRecord(1, 0)
	if err := l.Append(r); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Append allocates %.1f times per record, want 0", allocs)
	}
}
