package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func rec(status int, body string) Record {
	return Record{Status: status, Machine: "cydra", Body: []byte(body)}
}

func TestMemoryLRU(t *testing.T) {
	m := NewMemory(2)
	m.Put("a", rec(200, "A"))
	m.Put("b", rec(200, "B"))
	if _, ok := m.Get("a"); !ok {
		t.Fatal("a missing")
	}
	m.Put("c", rec(200, "C")) // evicts b (a was refreshed)
	if _, ok := m.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if got, ok := m.Get("a"); !ok || string(got.Body) != "A" {
		t.Fatalf("a = %q, %v", got.Body, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get("a"); ok || m.Len() != 0 {
		t.Fatal("closed tier must miss")
	}
}

func TestMemoryDisabled(t *testing.T) {
	m := NewMemory(0)
	m.Put("a", rec(200, "A"))
	if _, ok := m.Get("a"); ok {
		t.Fatal("disabled tier must miss")
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := Record{Status: 422, Machine: "cgra4", Body: []byte(`{"ok":false}`)}
	d.Put("k1", want)
	got, ok := d.Get("k1")
	if !ok || got.Status != want.Status || got.Machine != want.Machine || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("got %+v ok=%v, want %+v", got, ok, want)
	}
	if _, ok := d.Get("absent"); ok {
		t.Fatal("absent key must miss")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskPersistence is the restart story at the tier level: records
// Put before Close are served byte-identically by a fresh Open of the
// same directory.
func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]Record{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%02d", i)
		r := rec(200, fmt.Sprintf(`{"loop":"l%02d","ii":%d}`, i, i+3))
		bodies[k] = r
		d.Put(k, r)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if loaded, rejected := d2.LoadReport(); loaded != 20 || rejected != 0 {
		t.Fatalf("LoadReport = %d loaded, %d rejected; want 20, 0", loaded, rejected)
	}
	for k, want := range bodies {
		got, ok := d2.Get(k)
		if !ok || !bytes.Equal(got.Body, want.Body) || got.Status != want.Status {
			t.Fatalf("%s: got %+v ok=%v, want %+v", k, got, ok, want)
		}
	}
}

// sizeBytes reports the log file's current size.
func sizeBytes(d *Disk) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}

func TestDiskIdempotentPut(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Put("k", rec(200, "body"))
	size := sizeBytes(d)
	d.Put("k", rec(200, "body")) // content-addressed: second Put is free
	if sizeBytes(d) != size {
		t.Fatalf("idempotent Put grew the log: %d -> %d", size, sizeBytes(d))
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

func TestDiskCompaction(t *testing.T) {
	dir := t.TempDir()
	// Each record is ~20+5+5+100 bytes; cap the log so ~8 fit.
	d, err := Open(dir, 1024)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 40; i++ {
		d.Put(fmt.Sprintf("ck-%02d", i), Record{Status: 200, Machine: "cydra", Body: body})
	}
	if sizeBytes(d) > 1024 {
		t.Fatalf("log size %d exceeds the 1024 bound after compaction", sizeBytes(d))
	}
	// The newest record always survives.
	if got, ok := d.Get("ck-39"); !ok || !bytes.Equal(got.Body, body) {
		t.Fatalf("newest record lost: ok=%v", ok)
	}
	// The oldest records were evicted.
	if _, ok := d.Get("ck-00"); ok {
		t.Fatal("oldest record should have been evicted")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Compaction preserved a loadable log.
	d2, err := Open(dir, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, rejected := d2.LoadReport(); rejected != 0 {
		t.Fatalf("compacted log rejected %d records on reload", rejected)
	}
	if got, ok := d2.Get("ck-39"); !ok || !bytes.Equal(got.Body, body) {
		t.Fatal("newest record lost across reopen")
	}
}

func TestTieredPromotion(t *testing.T) {
	dir := t.TempDir()
	disk, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory(8)
	tt := NewTiered(mem, disk)
	defer tt.Close()

	disk.Put("deep", rec(200, "from-disk"))
	got, tier, ok := tt.GetTier("deep")
	if !ok || tier != 1 || string(got.Body) != "from-disk" {
		t.Fatalf("GetTier = %+v tier=%d ok=%v", got, tier, ok)
	}
	// The hit was promoted: now it answers from the memory tier.
	if _, tier, ok := tt.GetTier("deep"); !ok || tier != 0 {
		t.Fatalf("promotion failed: tier=%d ok=%v", tier, ok)
	}

	tt.Put("both", rec(200, "write-through"))
	if _, ok := mem.Get("both"); !ok {
		t.Fatal("write-through missed the memory tier")
	}
	if _, ok := disk.Get("both"); !ok {
		t.Fatal("write-through missed the disk tier")
	}
	if tt.Len() != mem.Len()+disk.Len() {
		t.Fatalf("Len = %d, want sum %d", tt.Len(), mem.Len()+disk.Len())
	}
}

func TestTieredEmpty(t *testing.T) {
	tt := NewTiered(nil, nil)
	tt.Put("k", rec(200, "x"))
	if _, ok := tt.Get("k"); ok {
		t.Fatal("empty composition must miss")
	}
	if tt.Len() != 0 || tt.Close() != nil {
		t.Fatal("empty composition misbehaves")
	}
}

// TestDiskCrashTornAppend simulates a crash mid-append: the log ends
// with a torn record, which the next Open rejects while serving every
// record before it.
func TestDiskCrashTornAppend(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("good", rec(200, "good-bytes"))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	// Append half a record's worth of garbage — a torn tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(diskMagic[:], bytes.Repeat([]byte{0x7}, 9)...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if loaded, rejected := d2.LoadReport(); loaded != 1 || rejected != 1 {
		t.Fatalf("LoadReport = %d loaded, %d rejected; want 1, 1", loaded, rejected)
	}
	if got, ok := d2.Get("good"); !ok || string(got.Body) != "good-bytes" {
		t.Fatal("record before the torn tail must survive")
	}
	// The torn tail was truncated away, so new appends land contiguous
	// with the last good record and survive another restart.
	d2.Put("after", rec(200, "after-bytes"))
	if got, ok := d2.Get("after"); !ok || string(got.Body) != "after-bytes" {
		t.Fatal("append after torn tail failed")
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if loaded, rejected := d3.LoadReport(); loaded != 2 || rejected != 0 {
		t.Fatalf("third generation LoadReport = %d loaded, %d rejected; want 2, 0", loaded, rejected)
	}
}
