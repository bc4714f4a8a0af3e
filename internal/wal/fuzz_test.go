package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzzSeeds builds the crafted adversarial inputs the committed corpus
// pins: a valid frame, a torn prefix, a bad checksum, a zero-length
// prefix, and a giant length prefix. The same seeds feed f.Add and the
// testdata corpus regenerator so the two can never drift.
func fuzzSeeds() map[string][]byte {
	valid := AppendRecord(nil, Record{T: -7, Values: []float64{1.25, math.NaN(), 0}})
	torn := append([]byte{}, valid[:len(valid)-5]...)
	badsum := append([]byte{}, valid...)
	badsum[5] ^= 0x40 // flip a checksum bit
	zero := make([]byte, frameHeaderSize)
	giant := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(giant[0:4], MaxRecordBytes+1)
	return map[string][]byte{
		"valid":        valid,
		"torn":         torn,
		"bad-checksum": badsum,
		"zero-length":  zero,
		"giant-length": giant,
	}
}

// FuzzWALDecode holds DecodeRecord to its contract on adversarial
// bytes: it never panics, never reads past the input, classifies every
// failure as torn or corrupt, and every successful decode re-encodes to
// a frame that decodes to the same record bitwise.
func FuzzWALDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := DecodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		if n <= frameHeaderSize || n > len(data) {
			t.Fatalf("decode consumed %d bytes of %d", n, len(data))
		}
		re := AppendRecord(nil, r)
		r2, n2, err2 := DecodeRecord(re)
		if err2 != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err2)
		}
		if n2 != len(re) || r2.T != r.T || !sameBits(r2.Values, r.Values) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", r, r2)
		}
	})
}

// TestGenerateFuzzCorpus rewrites the committed seed corpus under
// testdata/fuzz/FuzzWALDecode when UPDATE_FUZZ_CORPUS=1 is set;
// otherwise it verifies the corpus is present and in sync with
// fuzzSeeds.
func TestGenerateFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWALDecode")
	update := os.Getenv("UPDATE_FUZZ_CORPUS") == "1"
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, seed := range fuzzSeeds() {
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
		if update {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("corpus seed %s missing (regenerate with UPDATE_FUZZ_CORPUS=1): %v", name, err)
		}
		if string(got) != want {
			t.Fatalf("corpus seed %s stale (regenerate with UPDATE_FUZZ_CORPUS=1)", name)
		}
	}
}

// recoverImage is the valid log FuzzWALRecover tears: three segments
// of records sized from a few bytes to several 512-byte sectors, the
// final one holding at least 2 500 bytes of frames (a frame is at most
// 1 290 bytes, so it never rotates into a fourth), as each segment
// file's bytes and logical end, plus the records in order.
func recoverImage(tb testing.TB) ([][]byte, []int, []Record, Options) {
	tb.Helper()
	opts := Options{SegmentBytes: 4096}
	dir := tb.TempDir()
	l, err := Open(dir, opts)
	if err != nil {
		tb.Fatal(err)
	}
	var recs []Record
	for i := 0; l.Stats().Segments < 3 || l.segs[2].bytes < 2500; i++ {
		r := Record{T: int64(i), Values: make([]float64, (i*37)%160)}
		for j := range r.Values {
			r.Values[j] = float64(i*1000+j) + 0.5
		}
		if err := l.Append(r); err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, r)
	}
	var ends []int
	for _, seg := range l.segs {
		ends = append(ends, int(seg.bytes))
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	var segs [][]byte
	for seq := uint64(1); seq <= 3; seq++ {
		data, err := os.ReadFile(segFile(dir, seq))
		if err != nil {
			tb.Fatal(err)
		}
		segs = append(segs, data)
	}
	return segs, ends, recs, opts
}

// FuzzWALRecover holds recovery to its contract on crash images of a
// valid log's final segment. With lost unset, the segment is
// overwritten from a fuzzed point with fuzzed bytes and then zeros (or,
// with pad unset, cut right after the fuzzed bytes, as a segment
// written before preallocation ends). With lost set, 1 to 4 aligned
// sectors from the point are zeroed and every later frame is kept: the
// writes of those sectors never landed. Open never panics. It refuses
// the log only with ErrCorrupt, and never on a pure crash image (zeros
// from the point, or lost sectors), which must open on exactly the
// frames before the first one the image changed. Whenever it opens, it
// keeps at least those frames, and Scan yields exactly Stats.Records
// records whose frames are, bitwise, the image's bytes up to each
// segment's logical end.
func FuzzWALRecover(f *testing.F) {
	segs, ends, recs, opts := recoverImage(f)
	last := segs[len(segs)-1]
	end := ends[len(ends)-1]
	f.Add(uint32(end), []byte{}, true, uint8(0))
	f.Add(uint32(end-5), []byte{}, true, uint8(0))
	f.Add(uint32(end-100), last[end-100:end-60], true, uint8(0))
	f.Add(uint32(end-60), bytes.Repeat([]byte{0xff}, 9), false, uint8(0))
	f.Add(uint32(0), last[:end], false, uint8(0))
	f.Add(uint32(3), []byte{0, 0, 0, 0, 1}, true, uint8(0))
	f.Add(uint32(sectorSize), []byte{}, true, uint8(1))
	f.Add(uint32(2*sectorSize+7), []byte{}, true, uint8(3))
	f.Fuzz(func(t *testing.T, cut uint32, tail []byte, pad bool, lost uint8) {
		c := int(cut % uint32(end+1))
		var img []byte
		crash := lost > 0 || (pad && len(tail) == 0)
		if lost > 0 {
			img = append([]byte{}, last...)
			from := c / sectorSize * sectorSize
			clear(img[from:min(from+(int(lost-1)%4+1)*sectorSize, len(img))])
		} else {
			img = append(append([]byte{}, last[:c]...), tail...)
			if pad && len(img) < len(last) {
				img = append(img, make([]byte, len(last)-len(img))...)
			}
		}
		dir := t.TempDir()
		for i, data := range append(segs[:len(segs)-1:len(segs)-1], img) {
			if err := os.WriteFile(segFile(dir, uint64(i+1)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// The records a crash kept: every earlier segment's, and the
		// final segment's frames up to the first one the image changed.
		var framed []byte
		intact := 0
		for i, data := range segs[:len(segs)-1] {
			framed = append(framed, data[:ends[i]]...)
			for off := 0; off < ends[i]; intact++ {
				_, n, _ := DecodeRecord(data[off:])
				off += n
			}
		}
		for off := 0; off < end; intact++ {
			_, n, _ := DecodeRecord(last[off:])
			if off+n > len(img) || !bytes.Equal(img[off:off+n], last[off:off+n]) {
				break
			}
			off += n
		}
		l, err := Open(dir, opts)
		if err != nil {
			if crash || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("recovery refused the image: %v", err)
			}
			return
		}
		defer l.Close()
		st := l.Stats()
		if st.Records < uint64(intact) || (crash && st.Records != uint64(intact)) {
			t.Fatalf("opened with %d records, %d were whole before the crash", st.Records, intact)
		}
		framed = append(framed, img[:l.segs[len(l.segs)-1].bytes]...)
		if int64(len(framed)) != st.Bytes {
			t.Fatalf("logical ends sum to %d bytes, Stats.Bytes %d", len(framed), st.Bytes)
		}
		var scanned []byte
		n := 0
		if err := l.Scan(func(r Record) error {
			if n < intact && (r.T != recs[n].T || !sameBits(r.Values, recs[n].Values)) {
				t.Fatalf("record %d is not the original record %d", n, n)
			}
			scanned = AppendRecord(scanned, r)
			n++
			return nil
		}); err != nil {
			t.Fatalf("scan after recovery: %v", err)
		}
		if uint64(n) != st.Records || !bytes.Equal(scanned, framed) {
			t.Fatalf("scan yielded %d records (Stats %d); frames match the image: %v", n, st.Records, bytes.Equal(scanned, framed))
		}
	})
}
