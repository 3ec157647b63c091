package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The verified-on-load contract, exercised per corruption class: a
// damaged record is skipped and counted in Stats().Rejects — never
// served — and every surviving record is served byte-identically.

// writeCorpus fills a fresh store with n records and returns the
// directory, the expected bodies, and the per-record (offset, size)
// layout of the closed log, oldest first.
func writeCorpus(t *testing.T, n int) (dir string, want map[string]Record, layout []diskEntry) {
	t.Helper()
	dir = t.TempDir()
	d, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want = map[string]Record{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("corpus-key-%02d", i)
		r := Record{Status: 200, Body: []byte(fmt.Sprintf(`{"loop":"loop%02d","ii":%d,"times":[0,1,2]}`, i, i+2))}
		want[k] = r
		d.Put(k, r)
	}
	layout = make([]diskEntry, 0, n)
	for _, k := range d.keysBySeq() {
		layout = append(layout, d.index[k])
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, want, layout
}

// corrupt applies f to the log bytes and writes them back.
func corrupt(t *testing.T, dir string, f func(b []byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, logName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkSurvivors opens the store and asserts that exactly the keys in
// want survive, byte-identical, and that wantRejects records were
// counted as rejected on load.
func checkSurvivors(t *testing.T, dir string, want map[string]Record, lost []string, wantRejects int64) {
	t.Helper()
	d, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loaded, rejected := d.LoadReport()
	if rejected != wantRejects {
		t.Fatalf("rejected = %d, want %d", rejected, wantRejects)
	}
	if loaded != len(want)-len(lost) {
		t.Fatalf("loaded = %d, want %d", loaded, len(want)-len(lost))
	}
	lostSet := map[string]bool{}
	for _, k := range lost {
		lostSet[k] = true
	}
	for k, w := range want {
		got, ok := d.Get(k)
		if lostSet[k] {
			if ok {
				t.Fatalf("%s: corrupted record was served", k)
			}
			continue
		}
		if !ok {
			t.Fatalf("%s: surviving record missed", k)
		}
		if got.Status != w.Status || !bytes.Equal(got.Body, w.Body) {
			t.Fatalf("%s: served bytes differ: got %+v, want %+v", k, got, w)
		}
	}
}

func TestCorruptTruncatedTail(t *testing.T) {
	dir, want, layout := writeCorpus(t, 8)
	last := layout[len(layout)-1]
	corrupt(t, dir, func(b []byte) []byte {
		return b[:last.off+last.size/2] // half the final record survives
	})
	checkSurvivors(t, dir, want, []string{"corpus-key-07"}, 1)
}

func TestCorruptBitFlippedBody(t *testing.T) {
	dir, want, layout := writeCorpus(t, 8)
	victim := layout[3]
	corrupt(t, dir, func(b []byte) []byte {
		b[victim.off+victim.size-1] ^= 0x40 // flip one bit in the body
		return b
	})
	checkSurvivors(t, dir, want, []string{"corpus-key-03"}, 1)
}

func TestCorruptWrongVersionHeader(t *testing.T) {
	dir, want, layout := writeCorpus(t, 8)
	victim := layout[5]
	corrupt(t, dir, func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[victim.off+4:], diskVersion+7)
		return b
	})
	checkSurvivors(t, dir, want, []string{"corpus-key-05"}, 1)
}

// TestOtherVersionIsMissAndCompacted re-tags one record with another
// version and a checksum to match: a sound record of another response
// format. It misses without a reject, and Open compacts it out of the
// log, so the next open finds nothing to skip.
func TestOtherVersionIsMissAndCompacted(t *testing.T) {
	dir, want, layout := writeCorpus(t, 8)
	victim := layout[5]
	corrupt(t, dir, func(b []byte) []byte {
		rec := b[victim.off : victim.off+victim.size]
		binary.LittleEndian.PutUint16(rec[4:], diskVersion+7)
		binary.LittleEndian.PutUint32(rec[16:], recordCRC(rec[4:16], rec[headerSize:]))
		return b
	})
	checkSurvivors(t, dir, want, []string{"corpus-key-05"}, 0)
	st, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if full := layout[len(layout)-1].off + layout[len(layout)-1].size; st.Size() != full-victim.size {
		t.Errorf("log is %d bytes after open, want %d without the other version's record", st.Size(), full-victim.size)
	}
	checkSurvivors(t, dir, want, []string{"corpus-key-05"}, 0)
}

// TestCorruptHeaderResync smashes a whole header (magic included): the
// loader must resynchronize on the next record's magic marker instead
// of abandoning the rest of the log.
func TestCorruptHeaderResync(t *testing.T) {
	dir, want, layout := writeCorpus(t, 8)
	victim := layout[2]
	corrupt(t, dir, func(b []byte) []byte {
		for i := int64(0); i < headerSize; i++ {
			b[victim.off+i] = 0xAA
		}
		return b
	})
	checkSurvivors(t, dir, want, []string{"corpus-key-02"}, 1)
}

// TestCorruptAfterOpen flips a byte after the store is open: the
// per-read verification catches it, the record becomes a miss, and the
// reject is counted.
func TestCorruptAfterOpen(t *testing.T) {
	dir, want, _ := writeCorpus(t, 4)
	d, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e := d.index["corpus-key-01"]
	// Overwrite one body byte in place through a second descriptor.
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, e.off+e.size-1); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, ok := d.Get("corpus-key-01"); ok {
		t.Fatal("corrupted record was served after open")
	}
	if st := d.Stats(); st.Rejects != 1 {
		t.Fatalf("rejects = %d, want 1", st.Rejects)
	}
	// The intact neighbors still serve byte-identically.
	for _, k := range []string{"corpus-key-00", "corpus-key-02", "corpus-key-03"} {
		got, ok := d.Get(k)
		if !ok || !bytes.Equal(got.Body, want[k].Body) {
			t.Fatalf("%s: intact record lost", k)
		}
	}
}
