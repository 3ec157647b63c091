// Package store is lsmsd's tiered result store: content-addressed
// records of canonical compile-response bytes, keyed by the lsms-wire/2
// content hash. The determinism guarantee of the wire format — same
// request, same machine, same effort counters, same bytes — is what
// makes the store sound: a record is not an approximation of a compile,
// it IS the compile, so replaying it from any tier (including across
// process restarts) is byte-identical to rescheduling it.
//
// Two implementations exist:
//
//   - Memory, a per-node LRU over whole records (the old private
//     server cache, promoted to the public first tier);
//   - Disk, a crash-safe append-only log with a per-record checksum,
//     verified-on-load (a corrupt or truncated record is skipped and
//     counted, never served; a record of another format version is a
//     miss, compacted away) and size-bounded log compaction — the tier
//     that survives restarts.
//
// Tiered composes them: Get consults tiers front to back and promotes
// lower-tier hits upward, Put writes through every tier, Len is the sum
// over tiers. lsmsd mounts a Memory→Disk pair and exposes the disk
// tier's health as lsmsd_store_rejects_total and lsmsd_store_records.
package store

// Record is one stored compile outcome: the exact serialized response
// bytes and the HTTP status they were served with. Body must be treated
// as immutable by every tier and every caller. Refined marks a record
// upgraded in place by lsmsd's background refinement tier (the body
// then carries the refined schedule); it survives the disk tier, so a
// restarted daemon keeps serving the refined bytes and keeps labeling
// them refined.
type Record struct {
	Status  int
	Body    []byte
	Refined bool
}

// Tier is one level of the result store. Implementations must be safe
// for concurrent use.
//
// Get returns the record stored under key, or ok=false — a tier that
// cannot produce the original bytes verbatim (corruption, eviction)
// must miss, never guess. Put stores a record; tiers may drop it
// (eviction, size bounds) without error. Len reports the number of
// retrievable records. Close flushes and releases any resources; a
// closed tier misses on Get and drops every Put.
type Tier interface {
	Get(key string) (Record, bool)
	Put(key string, rec Record)
	Len() int
	Close() error
}

// Stats counts the disk tier's verification failures: Rejects is the
// number of records that failed verification (checksum mismatch,
// truncation, implausible framing) and were skipped rather than
// served, cumulative since the tier was opened.
type Stats struct {
	Rejects int64
}
