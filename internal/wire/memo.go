package wire

import (
	"crypto/sha256"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/machine"
)

// MemoBudget is the ceiling on the bytes the source memo retains:
// every document's slices at their capacity, its names, and its key.
// A document larger than MemoBudget/64 is never stored, so no single
// source can flush the memo.
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

// sourceMemo maps each lowered source to the canonical loop document
// EncodeLoop built for it, so a repeated source-form request runs no
// frontend. Documents are shared read-only: every request that hits
// one points its normalized form at the same *Loop. Eviction is
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
	doc  *Loop
	size int
}

func newSourceMemo(budget int) *sourceMemo {
	return &sourceMemo{budget: budget, docs: map[memoKey]memoEntry{}}
}

// get returns the document stored under k, or nil.
func (c *sourceMemo) get(k *memoKey) *Loop {
	c.mu.Lock()
	e := c.docs[*k]
	c.mu.Unlock()
	return e.doc
}

// put stores doc under k, which must be a freshly encoded document no
// one else references: its names are copied out of the source first,
// so the memo pins no request's bytes. The oldest entries go until the
// new one fits. A concurrent put of the same key keeps the first.
func (c *sourceMemo) put(k *memoKey, doc *Loop) {
	size := docBytes(doc) + memoKeyBytes
	if size > c.budget/64 {
		return
	}
	detachNames(doc)
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

// docBytes counts the memory a document EncodeLoop built retains: its
// slices at their capacity, the constants and operands its pointers and
// argument lists share, and its names. The other strings are the
// static spellings of enumerations.
func docBytes(w *Loop) int {
	n := int(unsafe.Sizeof(*w)) + len(w.Name)
	n += cap(w.Values) * int(unsafe.Sizeof(Value{}))
	for i := range w.Values {
		n += len(w.Values[i].Name)
		if w.Values[i].Const != nil {
			n += int(unsafe.Sizeof(Const{}))
		}
	}
	n += cap(w.Ops) * int(unsafe.Sizeof(Op{}))
	for i := range w.Ops {
		n += len(w.Ops[i].Args) * int(unsafe.Sizeof(Operand{}))
		if w.Ops[i].Pred != nil {
			n += int(unsafe.Sizeof(Operand{}))
		}
	}
	return n + cap(w.Deps)*int(unsafe.Sizeof(Dep{}))
}

// detachNames copies the loop and value names into one string of the
// document's own. The frontend slices identifiers out of the source,
// so without the copy a stored document would keep its whole request
// source alive.
func detachNames(w *Loop) {
	n := len(w.Name)
	for i := range w.Values {
		n += len(w.Values[i].Name)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(w.Name)
	for i := range w.Values {
		b.WriteString(w.Values[i].Name)
	}
	s := b.String()
	w.Name, s = s[:len(w.Name)], s[len(w.Name):]
	for i := range w.Values {
		k := len(w.Values[i].Name)
		w.Values[i].Name, s = s[:k], s[k:]
	}
}
