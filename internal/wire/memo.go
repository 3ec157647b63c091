package wire

import (
	"crypto/sha256"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/machine"
)

// MemoBudget is the ceiling on the bytes the source memo retains:
// every document's canonical bytes, its name, and its key. A document
// larger than MemoBudget/64 is never stored, so no single source can
// flush the memo.
const MemoBudget = 3 << 20

// sources is the process-wide memo of source-form lowerings that
// Normalize consults; see sourceMemo.
var sources = newSourceMemo(MemoBudget)

// memoKey names one lowering: the resolved target (by pointer, since
// machine.Register replaces a target by name), the loop index, and the
// SHA-256 of the source.
type memoKey struct {
	m     *machine.Desc
	index int
	sum   [sha256.Size]byte
}

// sourceSum digests a source in place: Sum256 only reads its input,
// so the string's bytes need no copy.
func sourceSum(src string) [sha256.Size]byte {
	return sha256.Sum256(unsafe.Slice(unsafe.StringData(src), len(src)))
}

// loopDoc is a loop document in canonical form: the bytes appendLoop
// wrote for it, and its name. Both are strings of their own, so a
// loopDoc shares nothing with the request it was lowered from, and
// every request that holds one may share it.
type loopDoc struct {
	bytes, name string
}

// encodeDoc encodes w once into a loopDoc.
func encodeDoc(w *Loop) (loopDoc, error) {
	bp := hashBufs.Get().(*[]byte)
	defer hashBufs.Put(bp)
	b, err := appendLoop((*bp)[:0], w)
	if err != nil {
		return loopDoc{}, err
	}
	*bp = b
	return loopDoc{bytes: string(b), name: strings.Clone(w.Name)}, nil
}

// sourceMemo maps each lowered source to the canonical bytes of the
// loop document the frontend's loop encodes to, so a repeated
// source-form request runs no frontend and encodes no loop. Eviction is
// first-in first-out by retained bytes. Only successful lowerings of
// registered targets enter; every error path lowers again.
type sourceMemo struct {
	budget int

	mu   sync.Mutex
	docs map[memoKey]memoEntry
	fifo []memoKey // insertion order; fifo[head:] are live
	head int
	used int // retained bytes of the live entries
}

type memoEntry struct {
	doc  loopDoc
	size int
}

func newSourceMemo(budget int) *sourceMemo {
	return &sourceMemo{budget: budget, docs: map[memoKey]memoEntry{}}
}

// get returns the document stored under k, and whether there is one.
func (c *sourceMemo) get(k *memoKey) (loopDoc, bool) {
	c.mu.Lock()
	e, ok := c.docs[*k]
	c.mu.Unlock()
	return e.doc, ok
}

// put stores doc under k. The oldest entries go until the new one
// fits. A concurrent put of the same key keeps the first.
func (c *sourceMemo) put(k *memoKey, doc loopDoc) {
	size := len(doc.bytes) + len(doc.name) + memoKeyBytes
	if size > c.budget/64 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.docs[*k]; ok {
		return
	}
	for c.used+size > c.budget {
		old := c.fifo[c.head]
		c.fifo[c.head] = memoKey{}
		c.head++
		c.used -= c.docs[old].size
		delete(c.docs, old)
	}
	if c.head > len(c.fifo)/2 {
		c.fifo = c.fifo[:copy(c.fifo, c.fifo[c.head:])]
		c.head = 0
	}
	c.fifo = append(c.fifo, *k)
	c.docs[*k] = memoEntry{doc, size}
	c.used += size
}

// memoKeyBytes is what an entry costs besides its document: the key,
// held by the map and the queue, and the map's value.
const memoKeyBytes = 2*int(unsafe.Sizeof(memoKey{})) + int(unsafe.Sizeof(memoEntry{}))
