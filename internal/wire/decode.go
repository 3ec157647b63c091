package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/machine"
)

// The request decoder is a single hand-written pass over the body that
// writes straight into the pooled Request and Loop storage. It accepts
// exactly the documents json.Unmarshal accepted into the same storage
// and produces the same values (the encoding/json decode it replaced is
// the oracle in oracle_test.go; FuzzDecodeRequest holds the two
// together). The rules it reproduces:
//
//   - Keys match case-insensitively with bytes.EqualFold semantics;
//     unknown keys are skipped, but their values must be valid JSON.
//   - A repeated key decodes its later value into the earlier storage:
//     struct fields merge, and array elements decode into the slice's
//     existing elements (up to its capacity) rather than fresh zeros.
//     An empty array yields a non-nil empty slice.
//   - null leaves a string, number, bool, or struct alone and sets a
//     slice or pointer to nil; any other value into a pointer allocates
//     it if nil ("const":{} is non-nil).
//   - Integer fields accept only in-range integer literals; a float
//     literal outside float64's range is an error.
//   - Strings: invalid UTF-8 becomes U+FFFD, \u surrogate pairs decode
//     (a lone surrogate becomes U+FFFD), raw control characters are a
//     syntax error.
//   - Nesting deeper than encoding/json's 10000 levels, and anything
//     but whitespace after the top-level value, are errors.
//   - The loop and machine_spec values are last-wins as a whole: a
//     repeated "loop" key decodes into fresh storage, and an earlier
//     value's type errors are forgotten. machine_spec — the rare path —
//     keeps json.Unmarshal on its validated byte span.

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

// syntaxError reports a body that is not valid JSON.
type syntaxError struct {
	off int
	msg string
}

func (e *syntaxError) Error() string { return fmt.Sprintf("offset %d: %s", e.off, e.msg) }

// typeError reports valid JSON whose value does not fit its field.
type typeError struct {
	off  int
	want string
}

func (e *typeError) Error() string { return fmt.Sprintf("offset %d: value is not %s", e.off, e.want) }

// decoder is the cursor of one request decode.
type decoder struct {
	data []byte
	// src, when set, is data as a string: an immutable document whose
	// unescaped strings the decode may share instead of copying.
	src   string
	off   int
	depth int
	// buf holds the unquoted bytes of the last string that needed
	// unescaping; it lives in the Scratch, so its capacity is pooled.
	buf []byte
	// hw is how far decodes have written into the pooled storage since
	// its last reset; it outlives the decode, until that reset.
	hw highWater
	// key holds the folded form of the last object key.
	key [24]byte
}

// highWater records the longest each pooled slice has been since it
// was last reset: the loop document's values, ops and deps, the
// longest argument list of any op, and the unquote buffer. A decode
// writes only below these lengths, so everything past them is still
// zero and a reset clears only up to them.
type highWater struct {
	values, ops, deps, args int
	buf                     int
}

// mark raises *hw to n.
func mark(hw *int, n int) {
	if n > *hw {
		*hw = n
	}
}

// interned maps each known spelling of an enumerated field to its
// canonical string, so decoding one allocates nothing.
func interned[V any](byName map[string]V) map[string]string {
	m := make(map[string]string, len(byName))
	for name := range byName {
		m[name] = name
	}
	return m
}

var (
	fileNames    = interned(fileByName)
	typeNames    = interned(typeByName)
	depKindNames = interned(depKindByName)
	opcodeNames  = func() map[string]string {
		m := make(map[string]string, machine.NumOpcodes)
		for o := machine.Opcode(0); int(o) < machine.NumOpcodes; o++ {
			m[o.String()] = o.String()
		}
		return m
	}()
)

// request decodes the body into r, using doc as the loop document's
// storage.
func (d *decoder) request(r *Request, doc *Loop) error {
	var spec []byte   // the last machine_spec value's bytes
	var loopErr error // the last loop value's type error
	docUsed := false  // doc holds a loop value decoded from this body
	err := d.object(func(key []byte) error {
		switch string(key) {
		case "version":
			return d.str(&r.Version, nil)
		case "machine":
			return d.str(&r.Machine, nil)
		case "machine_spec":
			d.ws()
			start := d.off
			err := d.skip()
			spec = d.data[start:d.off]
			return err
		case "scheduler":
			return d.str(&r.Scheduler, nil)
		case "options":
			return d.options(&r.Options)
		case "source":
			return d.str(&r.Source, nil)
		case "loop_index":
			return intField(d, &r.LoopIndex)
		case "loop":
			loopErr = nil
			if d.ws() == 'n' {
				r.Loop = nil
				return d.literal("null")
			}
			w := doc
			if docUsed {
				// The document already holds an earlier loop value; the
				// last one must decode as if it were the only one.
				w = new(Loop)
			} else {
				docUsed = true
				doc.reset(&d.hw)
			}
			r.Loop = w
			start, depth := d.off, d.depth
			err := d.loop(w)
			if _, ok := err.(*typeError); ok {
				// Skip the value instead: a later "loop" key may still
				// replace it.
				loopErr = err
				d.off, d.depth = start, depth
				return d.skip()
			}
			return err
		}
		return d.skip()
	})
	if d.ws(); err == nil && d.off < len(d.data) {
		err = &syntaxError{d.off, fmt.Sprintf("invalid character %q after top-level value", d.data[d.off])}
	}
	if err != nil {
		return fmt.Errorf("parsing request: %w", err)
	}
	if loopErr != nil {
		return fmt.Errorf("parsing request loop: %w", loopErr)
	}
	if len(spec) > 0 && string(spec) != "null" {
		// Inline specs decode into a fresh document, not pooled storage:
		// the built Desc keeps a reference to the spec, so reusing a
		// buffer here would let one request's target leak into the next.
		ms := new(machine.Spec)
		if err := json.Unmarshal(spec, ms); err != nil {
			return fmt.Errorf("parsing request machine_spec: %w", err)
		}
		r.MachineSpec = ms
	}
	return nil
}

func (d *decoder) options(o *Options) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "max_ii":
			return intField(d, &o.MaxII)
		case "deadline_ms":
			return intField(d, &o.DeadlineMS)
		case "max_central_iters":
			return intField(d, &o.MaxCentralIters)
		case "max_ii_attempts":
			return intField(d, &o.MaxIIAttempts)
		case "degrade":
			return d.boolean(&o.Degrade)
		}
		return d.skip()
	})
}

func (d *decoder) loop(w *Loop) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "name":
			return d.str(&w.Name, nil)
		case "num_bb":
			return intField(d, &w.NumBB)
		case "trip_count":
			return intField(d, &w.TripCount)
		case "has_conditional":
			return d.boolean(&w.HasConditional)
		case "values":
			return decodeSlice(d, &w.Values, (*decoder).value, &d.hw.values)
		case "ops":
			return decodeSlice(d, &w.Ops, (*decoder).op, &d.hw.ops)
		case "deps":
			return decodeSlice(d, &w.Deps, (*decoder).dep, &d.hw.deps)
		}
		return d.skip()
	})
}

func (d *decoder) value(v *Value) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "name":
			return d.str(&v.Name, nil)
		case "file":
			return d.str(&v.File, fileNames)
		case "type":
			return d.str(&v.Type, typeNames)
		case "live_out":
			return d.boolean(&v.LiveOut)
		case "const":
			return decodePointer(d, &v.Const, (*decoder).constant)
		}
		return d.skip()
	})
}

func (d *decoder) constant(c *Const) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "i":
			return intField(d, &c.I)
		case "f":
			return d.float(&c.F)
		case "b":
			return d.boolean(&c.B)
		}
		return d.skip()
	})
}

func (d *decoder) op(o *Op) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "opcode":
			return d.str(&o.Opcode, opcodeNames)
		case "args":
			return decodeSlice(d, &o.Args, (*decoder).operand, &d.hw.args)
		case "result":
			return intField(d, &o.Result)
		case "pred":
			return decodePointer(d, &o.Pred, (*decoder).operand)
		case "pred_neg":
			return d.boolean(&o.PredNeg)
		}
		return d.skip()
	})
}

func (d *decoder) operand(o *Operand) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "val":
			return intField(d, &o.Val)
		case "omega":
			return intField(d, &o.Omega)
		}
		return d.skip()
	})
}

func (d *decoder) dep(p *Dep) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case "from":
			return intField(d, &p.From)
		case "to":
			return intField(d, &p.To)
		case "latency":
			return intField(d, &p.Latency)
		case "omega":
			return intField(d, &p.Omega)
		case "kind":
			return d.str(&p.Kind, depKindNames)
		}
		return d.skip()
	})
}

// decodeSlice decodes an array into *p the way encoding/json does: element i
// decodes into the slice's existing element i while i is within its
// capacity, the length is set to the element count, an empty array
// yields a non-nil empty slice, and null yields nil. hw is raised to
// every length the slice reaches.
func decodeSlice[T any](d *decoder, p *[]T, elem func(*decoder, *T) error, hw *int) error {
	switch d.ws() {
	case 'n':
		*p = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("an array")
	}
	if err := d.open(); err != nil {
		return err
	}
	s := *p
	i := 0
	for ; ; i++ {
		more, err := d.element(i)
		if err != nil {
			*p = s
			return err
		}
		if !more {
			break
		}
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		default:
			var zero T
			s = append(s, zero)
		}
		mark(hw, i+1)
		if err := elem(d, &s[i]); err != nil {
			*p = s
			return err
		}
	}
	if i == 0 {
		*p = []T{}
	} else {
		*p = s[:i]
	}
	return nil
}

// decodePointer decodes into **p: null sets it to nil, any other value
// decodes into the existing target, allocated first if nil.
func decodePointer[T any](d *decoder, p **T, elem func(*decoder, *T) error) error {
	if d.ws() == 'n' {
		*p = nil
		return d.literal("null")
	}
	if *p == nil {
		*p = new(T)
	}
	return elem(d, *p)
}

// str decodes a string field; null leaves it alone. A string found in
// names is stored as its interned copy, one that needed no unescaping
// as a substring of src when it is set, and any other as a fresh one,
// so the field never aliases the body.
func (d *decoder) str(p *string, names map[string]string) error {
	switch d.ws() {
	case '"':
		start := d.off + 1
		b, err := d.quoted()
		if err != nil {
			return err
		}
		if s, ok := names[string(b)]; ok {
			*p = s
		} else if d.src != "" && unsafe.SliceData(b) == unsafe.SliceData(d.data[start:]) {
			*p = d.src[start : start+len(b)]
		} else {
			*p = string(b)
		}
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("a string")
}

func (d *decoder) boolean(p *bool) error {
	switch d.ws() {
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("a bool")
}

// intField decodes an integer field: an integer literal in range, as
// strconv.ParseInt(s, 10, 64) would take it; null leaves it alone.
func intField[T int | int64](d *decoder, p *T) error {
	switch c := d.ws(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		start := d.off
		b, err := d.number()
		if err != nil {
			return err
		}
		v, ok := parseInt(b)
		if !ok || int64(T(v)) != v {
			return &typeError{start, "an integer in range"}
		}
		*p = T(v)
		return nil
	}
	return d.mismatch("a number")
}

// parseInt parses a JSON number literal that must be an integer within
// int64's range.
func parseInt(b []byte) (int64, bool) {
	neg := b[0] == '-'
	if neg {
		b = b[1:]
	}
	// JSON integers have no leading zeros, so more than 19 digits is
	// out of range.
	if len(b) > 19 {
		return 0, false
	}
	var u uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return -int64(u), true
	}
	if u > 1<<63-1 {
		return 0, false
	}
	return int64(u), true
}

// float decodes a float64 field as strconv.ParseFloat would; null
// leaves it alone.
func (d *decoder) float(p *float64) error {
	switch c := d.ws(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		start := d.off
		b, err := d.number()
		if err != nil {
			return err
		}
		// Integers of up to 15 digits convert exactly; the rest take
		// the general path.
		if v, ok := parseInt(b); ok && len(b) <= 15 {
			f := float64(v)
			if b[0] == '-' && v == 0 {
				f = -f // "-0" is negative zero
			}
			*p = f
			return nil
		}
		f, err := strconv.ParseFloat(string(b), 64)
		if err != nil {
			return &typeError{start, "a float64 in range"}
		}
		*p = f
		return nil
	}
	return d.mismatch("a number")
}

// ws skips whitespace and returns the byte at the cursor, 0 at the end.
func (d *decoder) ws() byte {
	for d.off < len(d.data) {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return c
		}
	}
	return 0
}

// errSyntax reports the byte at the cursor as unexpected.
func (d *decoder) errSyntax() error {
	if d.off >= len(d.data) {
		return &syntaxError{d.off, "unexpected end of input"}
	}
	return &syntaxError{d.off, fmt.Sprintf("invalid character %q", d.data[d.off])}
}

// mismatch reports the value at the cursor as the wrong type for its
// field, or as a syntax error if no value starts there.
func (d *decoder) mismatch(want string) error {
	switch c := d.ws(); c {
	case '{', '[', '"', 't', 'f', 'n', '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return &typeError{d.off, want}
	}
	return d.errSyntax()
}

// literal consumes true, false, or null at the cursor.
func (d *decoder) literal(lit string) error {
	if len(d.data)-d.off < len(lit) || string(d.data[d.off:d.off+len(lit)]) != lit {
		return &syntaxError{d.off, "invalid literal"}
	}
	d.off += len(lit)
	return nil
}

// open consumes the '{' or '[' at the cursor.
func (d *decoder) open() error {
	if d.depth++; d.depth > maxDepth {
		return &syntaxError{d.off, "exceeded max depth"}
	}
	d.off++
	return nil
}

// object decodes the object at the cursor member by member: field
// gets each key, folded (see fold), with the cursor at its value, and
// must consume the value — skipping it if the key names no field. null
// leaves the struct alone.
func (d *decoder) object(field func(key []byte) error) error {
	switch d.ws() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("an object")
	}
	if err := d.open(); err != nil {
		return err
	}
	for n := 0; ; n++ {
		key, more, err := d.member(n)
		if err != nil || !more {
			return err
		}
		if err := field(d.fold(key)); err != nil {
			return err
		}
	}
}

// member advances to the n-th member of the open object: it returns the
// member's unquoted key (valid until the next string read) with the
// cursor at its value, or false after consuming the closing brace.
func (d *decoder) member(n int) ([]byte, bool, error) {
	c := d.ws()
	if c == '}' {
		d.off++
		d.depth--
		return nil, false, nil
	}
	if n > 0 {
		if c != ',' {
			return nil, false, d.errSyntax()
		}
		d.off++
		c = d.ws()
	}
	if c != '"' {
		return nil, false, d.errSyntax()
	}
	key, err := d.quoted()
	if err != nil {
		return nil, false, err
	}
	if d.ws() != ':' {
		return nil, false, d.errSyntax()
	}
	d.off++
	return key, true, nil
}

// element advances to the n-th element of the open array, or reports
// false after consuming the closing bracket.
func (d *decoder) element(n int) (bool, error) {
	c := d.ws()
	if c == ']' {
		d.off++
		d.depth--
		return false, nil
	}
	if n > 0 {
		if c != ',' {
			return false, d.errSyntax()
		}
		d.off++
	}
	return true, nil
}

// fold maps an object key to the field name it selects under
// encoding/json's case-insensitive matching (bytes.EqualFold): ASCII
// letters lower-cased, and the only two non-ASCII runes whose case
// folds reach ASCII — ſ (U+017F) and the Kelvin sign (U+212A) —
// replaced by s and k. Any other non-ASCII key, and any key longer than
// every field name, folds to nil, which matches no field.
func (d *decoder) fold(key []byte) []byte {
	out := d.key[:0]
	for i := 0; i < len(key); {
		if len(out) == cap(out) {
			return nil
		}
		c := key[i]
		switch {
		case c < utf8.RuneSelf:
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			i++
		case bytes.HasPrefix(key[i:], longS):
			c = 's'
			i += len(longS)
		case bytes.HasPrefix(key[i:], kelvin):
			c = 'k'
			i += len(kelvin)
		default:
			return nil
		}
		out = append(out, c)
	}
	return out
}

var (
	longS  = []byte("ſ")
	kelvin = []byte("K")
)

// quoted reads the string at the cursor and returns its unquoted bytes:
// a sub-slice of the body when it holds no escapes and only valid
// UTF-8, else d.buf. Either way they are valid only until the next read.
func (d *decoder) quoted() ([]byte, error) {
	d.off++ // opening quote
	start := d.off
	for d.off < len(d.data) {
		switch c := d.data[d.off]; {
		case c == '"':
			d.off++
			return d.data[start : d.off-1], nil
		case c == '\\':
			return d.unquote(start)
		case c < ' ':
			return nil, d.errSyntax()
		case c < utf8.RuneSelf:
			d.off++
		default:
			r, size := utf8.DecodeRune(d.data[d.off:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start)
			}
			d.off += size
		}
	}
	return nil, d.errSyntax()
}

// unquote finishes a string that needs rewriting, from start (just past
// the opening quote) with the cursor at the first byte to rewrite,
// exactly as encoding/json unquotes.
func (d *decoder) unquote(start int) ([]byte, error) {
	b := append(d.buf[:0], d.data[start:d.off]...)
	defer func() {
		mark(&d.hw.buf, len(b))
		d.buf = b[:0]
	}()
	for d.off < len(d.data) {
		switch c := d.data[d.off]; {
		case c == '"':
			d.off++
			return b, nil
		case c == '\\':
			if d.off+1 >= len(d.data) {
				d.off++
				return nil, d.errSyntax()
			}
			switch e := d.data[d.off+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[d.off+2:])
				if r < 0 {
					d.off += 2
					return nil, &syntaxError{d.off, "invalid \\u escape"}
				}
				d.off += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if len(d.data)-d.off >= 2 && d.data[d.off] == '\\' && d.data[d.off+1] == 'u' {
						r2 = hex4(d.data[d.off+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						d.off += 6
						r = dec
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.off++
				return nil, d.errSyntax()
			}
			d.off += 2
		case c < ' ':
			return nil, d.errSyntax()
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.off++
		default:
			// Invalid UTF-8 decodes as U+FFFD, one per bad byte.
			r, size := utf8.DecodeRune(d.data[d.off:])
			b = utf8.AppendRune(b, r)
			d.off += size
		}
	}
	return nil, d.errSyntax()
}

// hex4 parses the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number scans the number literal at the cursor and returns its bytes.
func (d *decoder) number() ([]byte, error) {
	start := d.off
	if d.data[d.off] == '-' {
		d.off++
	}
	switch {
	case d.off < len(d.data) && d.data[d.off] == '0':
		d.off++
	case d.digits() == 0:
		return nil, d.errSyntax()
	}
	if d.off < len(d.data) && d.data[d.off] == '.' {
		d.off++
		if d.digits() == 0 {
			return nil, d.errSyntax()
		}
	}
	if d.off < len(d.data) && (d.data[d.off] == 'e' || d.data[d.off] == 'E') {
		d.off++
		if d.off < len(d.data) && (d.data[d.off] == '+' || d.data[d.off] == '-') {
			d.off++
		}
		if d.digits() == 0 {
			return nil, d.errSyntax()
		}
	}
	return d.data[start:d.off], nil
}

// digits consumes a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.off
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
	return d.off - start
}

// skip consumes one JSON value of any type, validating its syntax.
func (d *decoder) skip() error {
	switch c := d.ws(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		for n := 0; ; n++ {
			more, err := d.element(n)
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := d.quoted()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.errSyntax()
}
