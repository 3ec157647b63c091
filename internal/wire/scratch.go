package wire

import (
	"fmt"
	"sync"
	"unsafe"
)

// Reset clears the request envelope for reuse by the decoder, which
// merges into existing values rather than starting fresh: a key absent
// from the next document leaves the old field contents in place. Every
// envelope field is therefore zeroed — in particular Loop drops to nil,
// because a stale non-nil pointer would make a source-form request look
// like it also carried an IR payload. The Request struct itself owns no
// slices, so a plain zeroing loses no capacity; loop-document reuse
// lives in Scratch.
func (r *Request) Reset() { *r = Request{} }

// reset deep-zeroes the loop document while keeping every slice's
// capacity, making it safe to decode the next document into it. The
// decoder reuses slice backing arrays up to capacity without clearing
// the elements first, so anything short of a deep zero leaks one
// document's fields into the next: a stale Operand.Omega, LiveOut flag,
// or Const literal would silently change the decoded loop — and its
// content hash. Pointers (Op.Pred, Value.Const) are nil'd for the same
// reason an absent key must read as absent, not as the previous value.
// Every write since the last reset lies below hw's lengths (see
// highWater) and everything past them is still zero, so it clears only
// up to them, then zeroes the document's marks.
func (w *Loop) reset(hw *highWater) {
	values := w.Values[:min(hw.values, cap(w.Values))]
	clear(values)
	ops := w.Ops[:min(hw.ops, cap(w.Ops))]
	for i := range ops {
		args := ops[i].Args[:min(hw.args, cap(ops[i].Args))]
		clear(args)
		ops[i] = Op{Args: args[:0]}
	}
	deps := w.Deps[:min(hw.deps, cap(w.Deps))]
	clear(deps)
	*w = Loop{Values: values[:0], Ops: ops[:0], Deps: deps[:0]}
	hw.values, hw.ops, hw.deps, hw.args = 0, 0, 0, 0
}

// Scratch is pooled request-decode storage: the loop document, the
// request struct, and the decoder with the buffer escaped strings
// unquote into all keep their capacity across decodes, so a server
// worker that has seen a loop of size n decodes the next size-≤n
// request without allocating document storage. One Scratch serves one
// decode at a time.
type Scratch struct {
	doc Loop
	req Request
	dec decoder
}

// Reset drops every reference the scratch holds to the last request —
// decoded strings, the document contents, the unquoted bytes — while
// keeping all buffer capacity for the next decode. Pools call this on
// release so an idle scratch retains no request data.
func (s *Scratch) Reset() {
	s.doc.reset(&s.dec.hw)
	s.req.Reset()
	clear(s.dec.buf[:min(s.dec.hw.buf, cap(s.dec.buf))])
	s.dec = decoder{buf: s.dec.buf[:0]}
}

// DecodeRequest parses body into the scratch-backed request in one pass
// (see decode.go). The returned *Request — and the loop document it
// points at — alias the scratch and are valid only until the next
// DecodeRequest call; decoded strings never alias body and may outlive
// both. On every input the decode gives the verdict and the request the
// encoding/json decode it replaced gave (oracle_test.go).
func (s *Scratch) DecodeRequest(body []byte) (*Request, error) {
	s.req.Reset()
	s.dec = decoder{data: body, buf: s.dec.buf[:0], hw: s.dec.hw}
	err := s.dec.request(&s.req, &s.doc)
	s.dec.data = nil
	if err != nil {
		return nil, err
	}
	return &s.req, nil
}

// docScratch pools the storage Lower parses canonical loop bytes into.
var docScratch = sync.Pool{New: func() any { return new(Scratch) }}

// decodeDoc parses canonical loop bytes into the scratch's document,
// valid until the next decode. Its strings are substrings of doc where
// they needed no unescaping: doc is immutable, so they may outlive the
// scratch.
func (s *Scratch) decodeDoc(doc string) (*Loop, error) {
	s.doc.reset(&s.dec.hw)
	s.dec = decoder{data: unsafe.Slice(unsafe.StringData(doc), len(doc)), src: doc, buf: s.dec.buf[:0], hw: s.dec.hw}
	if err := s.dec.loop(&s.doc); err != nil {
		return nil, fmt.Errorf("parsing loop document: %w", err)
	}
	return &s.doc, nil
}
