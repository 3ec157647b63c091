package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Disk is the persistent tier: an append-only log of checksummed
// records in a single file, with an in-memory index from key to file
// offset. It is crash-safe by construction rather than by fsync
// discipline: the log is only ever appended to (compaction writes a
// fresh file and renames it into place), and every record carries a
// CRC over its header fields and payload, so a torn or bit-flipped
// record is detected — on open and again on every read — counted in
// Stats.Rejects, and treated as a miss. The store can lose the tail
// written during a crash; it can never serve wrong bytes.
//
// Record layout (little-endian), defined by diskVersion:
//
//	magic   [4]byte "lsrc"
//	version uint16
//	status  uint16   HTTP status the body was served with
//	keyLen  uint16
//	machLen uint16
//	bodyLen uint32
//	crc     uint32   CRC-32C over version..bodyLen, key, machine, body
//	key     [keyLen]byte
//	machine [machLen]byte
//	body    [bodyLen]byte
//
// Re-Putting a key appends a fresh record that supersedes the old one
// (last write wins on load, matching append order). When the log
// exceeds MaxBytes the live records are compacted into a new file,
// oldest records evicted first if compaction alone is not enough.
type Disk struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	size     int64 // bytes in the log file
	live     int64 // bytes of the records the index points at
	maxBytes int64
	seq      int64 // insertion order stamp, for eviction and compaction
	index    map[string]diskEntry
	closed   bool
	rejects  atomic.Int64

	loadRejects int64 // rejects counted while opening (subset of rejects)
	loaded      int   // records surviving verification at open
}

type diskEntry struct {
	off     int64
	size    int64 // whole record, header included
	seq     int64
	refined bool
}

const (
	diskVersion = 1
	headerSize  = 20
	// refinedBit marks a record upgraded by the background refiner. It
	// rides in the high bit of the on-disk status field (real HTTP
	// statuses stay below 600), so the layout and version are unchanged
	// and logs written before the refiner existed load as unrefined.
	refinedBit     = 0x8000
	maxKeyBytes    = 1 << 10
	maxMachBytes   = 1 << 10
	maxRecordBytes = 64 << 20
	// logName is the log file inside the store directory.
	logName = "lsmsd.store"
)

var (
	diskMagic = [4]byte{'l', 's', 'r', 'c'}
	castTable = crc32.MakeTable(crc32.Castagnoli)
)

// Open opens (creating if needed) the disk tier rooted at dir. Every
// record in the existing log is verified before it is indexed: a
// record whose checksum does not match, whose header names an
// unsupported version, or which is cut off by the end of the file is
// skipped and counted in Stats().Rejects — the surviving records serve
// byte-identically, the damaged ones miss. maxBytes > 0 bounds the log
// size via compaction and oldest-first eviction; 0 means unbounded.
func Open(dir string, maxBytes int64) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{
		path:     filepath.Join(dir, logName),
		maxBytes: maxBytes,
		index:    make(map[string]diskEntry),
	}
	f, err := os.OpenFile(d.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d.f = f
	if err := d.load(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// load scans the log, verifying every record and indexing the last
// (live) record of each key. Framing is trusted as far as the header
// sanity checks allow: a record with a bad checksum or an unsupported
// version but sane lengths is skipped exactly; a record whose header
// is itself implausible triggers a byte-wise rescan for the next magic
// marker, so one corrupt header cannot take out the rest of the log.
func (d *Disk) load() error {
	buf, err := os.ReadFile(d.path)
	if err != nil {
		return fmt.Errorf("store: reading log: %w", err)
	}
	d.size = int64(len(buf))
	off := 0
	reject := func() { d.rejects.Add(1); d.loadRejects++ }
	for off < len(buf) {
		rec := buf[off:]
		if len(rec) < headerSize {
			reject() // truncated tail: a crash mid-append
			break
		}
		if [4]byte(rec[:4]) != diskMagic {
			// Corrupt header: resync on the next magic marker.
			reject()
			off += nextMagic(rec[1:]) + 1
			continue
		}
		version := binary.LittleEndian.Uint16(rec[4:6])
		keyLen := int(binary.LittleEndian.Uint16(rec[8:10]))
		machLen := int(binary.LittleEndian.Uint16(rec[10:12]))
		bodyLen := int(binary.LittleEndian.Uint32(rec[12:16]))
		crc := binary.LittleEndian.Uint32(rec[16:20])
		size := headerSize + keyLen + machLen + bodyLen
		if keyLen == 0 || keyLen > maxKeyBytes || machLen > maxMachBytes ||
			bodyLen > maxRecordBytes {
			// Implausible lengths: the header itself is damaged, so its
			// framing cannot be trusted either. Resync.
			reject()
			off += nextMagic(rec[1:]) + 1
			continue
		}
		if size > len(rec) {
			reject() // truncated tail record
			break
		}
		ok := version == diskVersion &&
			crc == recordCRC(rec[4:16], rec[headerSize:size])
		if !ok {
			// Wrong version or checksum mismatch: framing is sane, so
			// skip this record exactly and keep the rest of the log.
			reject()
			off += size
			continue
		}
		key := string(rec[headerSize : headerSize+keyLen])
		d.seq++
		if old, dup := d.index[key]; dup {
			d.live -= old.size
		}
		refined := binary.LittleEndian.Uint16(rec[6:8])&refinedBit != 0
		d.index[key] = diskEntry{off: int64(off), size: int64(size), seq: d.seq, refined: refined}
		d.live += int64(size)
		off += size
	}
	if int64(off) < d.size {
		// The scan stopped inside a torn tail (a crash mid-append).
		// Truncate it away so new appends are contiguous with the last
		// parseable record instead of being stranded behind garbage.
		if err := d.f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
		d.size = int64(off)
	}
	d.loaded = len(d.index)
	return nil
}

// nextMagic returns the offset of the next magic marker in b, or
// len(b) when none remains.
func nextMagic(b []byte) int {
	for i := 0; i+4 <= len(b); i++ {
		if [4]byte(b[i:i+4]) == diskMagic {
			return i
		}
	}
	return len(b)
}

// recordCRC computes the per-record checksum: the header fields after
// the magic (version through bodyLen) plus the payload.
func recordCRC(header, payload []byte) uint32 {
	crc := crc32.Update(0, castTable, header)
	return crc32.Update(crc, castTable, payload)
}

// Get returns the record stored under key. The checksum is re-verified
// on every read — file corruption after open is detected here — and a
// record that fails verification is dropped from the index, counted in
// Stats().Rejects, and reported as a miss.
func (d *Disk) Get(key string) (Record, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return Record{}, false
	}
	e, ok := d.index[key]
	if !ok {
		return Record{}, false
	}
	rec, ok := d.readAt(e)
	if !ok || string(rec.key) != key {
		d.rejects.Add(1)
		delete(d.index, key)
		d.live -= e.size
		return Record{}, false
	}
	return Record{Status: rec.status, Machine: string(rec.machine), Body: rec.body, Refined: rec.refined}, true
}

// rawRecord is one verified on-disk record, borrowed or copied.
type rawRecord struct {
	status  int
	refined bool
	key     []byte
	machine []byte
	body    []byte
}

// readAt reads and verifies the record at e. The returned slices are
// freshly allocated (they escape into responses and upper tiers).
func (d *Disk) readAt(e diskEntry) (rawRecord, bool) {
	if e.size < headerSize || e.size > maxRecordBytes+headerSize+maxKeyBytes+maxMachBytes {
		return rawRecord{}, false
	}
	buf := make([]byte, e.size)
	if _, err := d.f.ReadAt(buf, e.off); err != nil {
		return rawRecord{}, false
	}
	if [4]byte(buf[:4]) != diskMagic ||
		binary.LittleEndian.Uint16(buf[4:6]) != diskVersion {
		return rawRecord{}, false
	}
	keyLen := int(binary.LittleEndian.Uint16(buf[8:10]))
	machLen := int(binary.LittleEndian.Uint16(buf[10:12]))
	bodyLen := int(binary.LittleEndian.Uint32(buf[12:16]))
	if headerSize+keyLen+machLen+bodyLen != int(e.size) {
		return rawRecord{}, false
	}
	if binary.LittleEndian.Uint32(buf[16:20]) != recordCRC(buf[4:16], buf[headerSize:]) {
		return rawRecord{}, false
	}
	p := buf[headerSize:]
	status := binary.LittleEndian.Uint16(buf[6:8])
	return rawRecord{
		status:  int(status &^ refinedBit),
		refined: status&refinedBit != 0,
		key:     p[:keyLen],
		machine: p[keyLen : keyLen+machLen],
		body:    p[keyLen+machLen:],
	}, true
}

// Put appends a record for key. An identical live record is left in
// place (idempotent re-Puts cost nothing); otherwise the new record
// supersedes any previous one for the key, and the log is compacted if
// it has outgrown MaxBytes.
func (d *Disk) Put(key string, rec Record) {
	if len(key) == 0 || len(key) > maxKeyBytes || len(rec.Machine) > maxMachBytes ||
		len(rec.Body) > maxRecordBytes {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if e, ok := d.index[key]; ok && e.refined == rec.Refined {
		// The hash is a content address of deterministic work: a live
		// record for the key with the same refinement generation already
		// holds these bytes. A differing flag is the refiner superseding
		// (or a promotion racing an upgrade) — append so last write wins.
		return
	}
	if err := d.append(key, rec); err != nil {
		// An append that failed midway leaves a torn record that the
		// next load (and any Get) rejects by checksum; resize the
		// bookkeeping to what the file claims and carry on serving.
		d.rejects.Add(1)
		if st, serr := d.f.Stat(); serr == nil {
			d.size = st.Size()
		}
		return
	}
	d.maybeCompact()
}

// append marshals and writes one record at the end of the log and
// indexes it.
func (d *Disk) append(key string, rec Record) error {
	size := headerSize + len(key) + len(rec.Machine) + len(rec.Body)
	buf := make([]byte, size)
	copy(buf[:4], diskMagic[:])
	binary.LittleEndian.PutUint16(buf[4:6], diskVersion)
	status := uint16(rec.Status)
	if rec.Refined {
		status |= refinedBit
	}
	binary.LittleEndian.PutUint16(buf[6:8], status)
	binary.LittleEndian.PutUint16(buf[8:10], uint16(len(key)))
	binary.LittleEndian.PutUint16(buf[10:12], uint16(len(rec.Machine)))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(rec.Body)))
	p := buf[headerSize:]
	copy(p, key)
	copy(p[len(key):], rec.Machine)
	copy(p[len(key)+len(rec.Machine):], rec.Body)
	binary.LittleEndian.PutUint32(buf[16:20], recordCRC(buf[4:16], p))
	if _, err := d.f.WriteAt(buf, d.size); err != nil {
		return err
	}
	d.seq++
	if old, dup := d.index[key]; dup {
		d.live -= old.size
	}
	d.index[key] = diskEntry{off: d.size, size: int64(size), seq: d.seq, refined: rec.Refined}
	d.live += int64(size)
	d.size += int64(size)
	return nil
}

// maybeCompact rewrites the log when it has outgrown maxBytes,
// dropping superseded and damaged records; if the live set alone still
// exceeds the bound, the oldest records are evicted until it fits (at
// least one record is always kept). Called with d.mu held.
func (d *Disk) maybeCompact() {
	if d.maxBytes <= 0 || d.size <= d.maxBytes {
		return
	}
	// Oldest-first eviction plan over the live set.
	keys := d.keysBySeq()
	total := d.live
	evict := 0
	for evict < len(keys)-1 && total > d.maxBytes {
		total -= d.index[keys[evict]].size
		evict++
	}
	if err := d.compact(keys[evict:]); err != nil {
		// Compaction is an optimization: on failure keep serving from
		// the old (oversized) log rather than dropping records.
		return
	}
}

// keysBySeq returns the live keys oldest-first.
func (d *Disk) keysBySeq() []string {
	keys := make([]string, 0, len(d.index))
	for k := range d.index {
		keys = append(keys, k)
	}
	// Insertion sort by seq: compaction is rare and the live set small
	// enough that avoiding a sort.Slice closure is not worth it, but
	// determinism is — eviction order must not depend on map order.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && d.index[keys[j]].seq < d.index[keys[j-1]].seq; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// compact writes the records for keep (oldest-first, so relative age
// survives) into a fresh log and atomically replaces the current one.
// Called with d.mu held.
func (d *Disk) compact(keep []string) error {
	tmpPath := d.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath) // no-op after a successful rename
	newIndex := make(map[string]diskEntry, len(keep))
	var off, live int64
	var seq int64
	for _, key := range keep {
		raw, ok := d.readAt(d.index[key])
		if !ok || string(raw.key) != key {
			d.rejects.Add(1)
			continue
		}
		buf := make([]byte, d.index[key].size)
		if _, err := d.f.ReadAt(buf, d.index[key].off); err != nil {
			d.rejects.Add(1)
			continue
		}
		if _, err := tmp.WriteAt(buf, off); err != nil {
			tmp.Close()
			return err
		}
		seq++
		newIndex[key] = diskEntry{off: off, size: int64(len(buf)), seq: seq}
		off += int64(len(buf))
		live += int64(len(buf))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := os.Rename(tmpPath, d.path); err != nil {
		tmp.Close()
		return err
	}
	d.f.Close()
	d.f = tmp
	d.index = newIndex
	d.size, d.live, d.seq = off, live, seq
	return nil
}

// Len reports the number of live (verified-at-open, not since
// rejected) records.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0
	}
	return len(d.index)
}

// Close syncs and closes the log. A closed tier misses on Get and
// drops every Put.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if err := d.f.Sync(); err != nil {
		d.f.Close()
		return fmt.Errorf("store: sync: %w", err)
	}
	if err := d.f.Close(); err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}

// Stats reports the tier's verification failures.
func (d *Disk) Stats() Stats { return Stats{Rejects: d.rejects.Load()} }

// LoadReport describes what Open found: how many records survived
// verification and how many were rejected (skipped, counted, never
// served). lsmsd logs it at boot.
func (d *Disk) LoadReport() (loaded int, rejected int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.loaded, d.loadRejects
}
