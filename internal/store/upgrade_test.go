package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// TestDiskRefinedRoundTrip: the refined flag survives the disk tier,
// including a reopen — a restarted daemon keeps labeling upgraded
// records.
func TestDiskRefinedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("plain", Record{Status: 200, Body: []byte(`{"ii":4}`)})
	d.Put("better", Record{Status: 200, Body: []byte(`{"ii":3}`), Refined: true})
	check := func(d *Disk, stage string) {
		t.Helper()
		if rec, ok := d.Get("plain"); !ok || rec.Refined || rec.Status != 200 {
			t.Fatalf("%s: plain = %+v ok=%v", stage, rec, ok)
		}
		if rec, ok := d.Get("better"); !ok || !rec.Refined || rec.Status != 200 {
			t.Fatalf("%s: better = %+v ok=%v", stage, rec, ok)
		}
	}
	check(d, "live")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	check(d2, "reopened")
	if loaded, rejected := d2.LoadReport(); loaded != 2 || rejected != 0 {
		t.Fatalf("reopen load report: loaded=%d rejected=%d", loaded, rejected)
	}
}

// TestDiskUpgradeSupersedes: re-Putting a key with a flipped refined
// flag must not hit the idempotent-re-Put fast path; the new record
// wins, in place and across restart.
func TestDiskUpgradeSupersedes(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := "loop"
	orig := []byte(`{"ii":5,"max_live":9}`)
	refined := []byte(`{"ii":5,"max_live":8,"refined":true}`)
	d.Put(k, Record{Status: 200, Body: orig})
	// Identical re-Put is still free.
	d.Put(k, Record{Status: 200, Body: orig})
	d.Put(k, Record{Status: 200, Body: refined, Refined: true})
	rec, ok := d.Get(k)
	if !ok || !rec.Refined || !bytes.Equal(rec.Body, refined) {
		t.Fatalf("after upgrade: %+v ok=%v", rec, ok)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rec, ok = d2.Get(k)
	if !ok || !rec.Refined || !bytes.Equal(rec.Body, refined) {
		t.Fatalf("after restart: %+v ok=%v", rec, ok)
	}
}

// TestTieredUpgrade: Upgrade writes back to front through every tier,
// so both the memory and the disk tier serve the refined record and a
// subsequent promotion cannot resurrect the old one.
func TestTieredUpgrade(t *testing.T) {
	mem := NewMemory(16)
	disk, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	tiered := NewTiered(mem, disk)
	k := "loop"
	tiered.Put(k, Record{Status: 200, Body: []byte(`v1`)})
	tiered.Upgrade(k, Record{Status: 200, Body: []byte(`v2`), Refined: true})
	for i, tier := range tiered.Tiers() {
		rec, ok := tier.Get(k)
		if !ok || !rec.Refined || !bytes.Equal(rec.Body, []byte(`v2`)) {
			t.Fatalf("tier %d after upgrade: %+v ok=%v", i, rec, ok)
		}
	}
	rec, tierIdx, ok := tiered.GetTier(k)
	if !ok || tierIdx != 0 || !rec.Refined {
		t.Fatalf("GetTier after upgrade: %+v tier=%d ok=%v", rec, tierIdx, ok)
	}
}

// machineLayoutRecord encodes one record as the disk tier wrote it while
// records carried their target's name: the same version-1 header, with
// machLen and the machine bytes filled in. It spells the layout out
// rather than calling the package's encoder, which no longer writes it.
func machineLayoutRecord(key, machine string, status uint16, body string) []byte {
	b := make([]byte, 20, 20+len(key)+len(machine)+len(body))
	copy(b, "lsrc")
	binary.LittleEndian.PutUint16(b[4:6], 1)
	binary.LittleEndian.PutUint16(b[6:8], status)
	binary.LittleEndian.PutUint16(b[8:10], uint16(len(key)))
	binary.LittleEndian.PutUint16(b[10:12], uint16(len(machine)))
	binary.LittleEndian.PutUint32(b[12:16], uint32(len(body)))
	b = append(append(append(b, key...), machine...), body...)
	tab := crc32.MakeTable(crc32.Castagnoli)
	binary.LittleEndian.PutUint32(b[16:20], crc32.Update(crc32.Update(0, tab, b[4:16]), tab, b[20:]))
	return b
}

// TestDiskLoadsMachineLayout: a log written while records still carried
// a machine name loads without a version bump and serves every record's
// status, body and refined bit byte for byte, before and after a
// compaction copies the old records into a new file; records written
// now carry an empty machine field, and the compacted index keeps each
// record's refined flag.
func TestDiskLoadsMachineLayout(t *testing.T) {
	dir := t.TempDir()
	superseded := machineLayoutRecord("a", "cydra", 200, `{"ii":4}`)
	log := superseded
	log = append(log, machineLayoutRecord("b", "cgra4", 422, `{"ok":false}`)...)
	log = append(log, machineLayoutRecord("c", "cydra", 200|0x8000, `{"ii":3,"refined":true}`)...)
	log = append(log, machineLayoutRecord("a", "cydra", 200, `{"ii":5}`)...)
	path := filepath.Join(dir, logName)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	want := map[string]Record{
		"a": {Status: 200, Body: []byte(`{"ii":5}`)},
		"b": {Status: 422, Body: []byte(`{"ok":false}`)},
		"c": {Status: 200, Body: []byte(`{"ii":3,"refined":true}`), Refined: true},
	}
	check := func(d *Disk, stage string) {
		t.Helper()
		for k, w := range want {
			got, ok := d.Get(k)
			if !ok || got.Status != w.Status || got.Refined != w.Refined || !bytes.Equal(got.Body, w.Body) {
				t.Fatalf("%s: %s = %+v ok=%v, want %+v", stage, k, got, ok, w)
			}
		}
	}

	// The bound holds every live record and the new one, but not the
	// superseded record too, so the Put below compacts and evicts nothing.
	added := Record{Status: 200, Body: []byte(`{"ii":2}`)}
	addedSize := int64(headerSize + len("d") + len(added.Body))
	live := int64(len(log)-len(superseded)) + addedSize
	d, err := Open(dir, live)
	if err != nil {
		t.Fatal(err)
	}
	if loaded, rejected := d.LoadReport(); loaded != 3 || rejected != 0 {
		t.Fatalf("load report: loaded=%d rejected=%d, want 3 and 0", loaded, rejected)
	}
	check(d, "loaded")
	d.Put("d", added)
	want["d"] = added
	if got := sizeBytes(d); got != live {
		t.Fatalf("log is %d bytes after the Put, want %d compacted", got, live)
	}
	check(d, "compacted")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if machLen := binary.LittleEndian.Uint16(b[int64(len(b))-addedSize+10:]); machLen != 0 {
		t.Fatalf("new record's machLen = %d, want 0", machLen)
	}
	d.Put("c", want["c"])
	if got := sizeBytes(d); got != live {
		t.Fatalf("an identical refined re-Put after compaction grew the log to %d bytes", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	check(d2, "reopened")
}
