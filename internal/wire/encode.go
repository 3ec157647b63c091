package wire

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/machine"
)

// The canonical encoder appends exactly the bytes json.Marshal produces
// for a Request — fields in declaration order, omitempty honored, nil
// slices and pointers as null, strings HTML-escaped, floats in
// encoding/json's format — without reflection. The codec tests and
// FuzzDecodeRequest hold it to json.Marshal (oracle_test.go).

// appendRequest appends r's canonical encoding to b. A normalized
// source-form request's loop is already canonical bytes, spliced in
// as they are. It fails only on a NaN or infinite constant, which JSON
// cannot represent.
func appendRequest(b []byte, r *Request) ([]byte, error) {
	b = append(b, `{"version":`...)
	b = appendString(b, r.Version)
	b = append(b, `,"machine":`...)
	b = appendString(b, r.Machine)
	if r.MachineSpec != nil {
		b = append(b, `,"machine_spec":`...)
		b = appendSpec(b, r.MachineSpec)
	}
	if r.Scheduler != "" {
		b = append(b, `,"scheduler":`...)
		b = appendString(b, r.Scheduler)
	}
	b = append(b, `,"options":`...)
	b = appendOptions(b, &r.Options)
	if r.Source != "" {
		b = append(b, `,"source":`...)
		b = appendString(b, r.Source)
	}
	if r.LoopIndex != 0 {
		b = appendInt(append(b, `,"loop_index":`...), r.LoopIndex)
	}
	switch {
	case r.Loop != nil:
		var err error
		if b, err = appendLoop(append(b, `,"loop":`...), r.Loop); err != nil {
			return nil, err
		}
	case r.doc.bytes != "":
		b = append(append(b, `,"loop":`...), r.doc.bytes...)
	}
	return append(b, '}'), nil
}

// closeObject finishes an object whose members were each appended with
// a leading comma from mark on: the first comma becomes the opening
// brace, or the object is empty.
func closeObject(b []byte, mark int) []byte { return closeList(b, mark, '{', '}') }

// closeArray is closeObject for an array's elements.
func closeArray(b []byte, mark int) []byte { return closeList(b, mark, '[', ']') }

func closeList(b []byte, mark int, open, close byte) []byte {
	if len(b) == mark {
		return append(b, open, close)
	}
	b[mark] = open
	return append(b, close)
}

func appendOptions(b []byte, o *Options) []byte {
	mark := len(b)
	if o.MaxII != 0 {
		b = appendInt(append(b, `,"max_ii":`...), o.MaxII)
	}
	if o.DeadlineMS != 0 {
		b = appendInt(append(b, `,"deadline_ms":`...), o.DeadlineMS)
	}
	if o.MaxCentralIters != 0 {
		b = appendInt(append(b, `,"max_central_iters":`...), o.MaxCentralIters)
	}
	if o.MaxIIAttempts != 0 {
		b = appendInt(append(b, `,"max_ii_attempts":`...), o.MaxIIAttempts)
	}
	if o.Degrade {
		b = append(b, `,"degrade":true`...)
	}
	return closeObject(b, mark)
}

func appendLoop(b []byte, w *Loop) ([]byte, error) {
	b = append(b, `{"name":`...)
	b = appendString(b, w.Name)
	if w.NumBB != 0 {
		b = appendInt(append(b, `,"num_bb":`...), w.NumBB)
	}
	if w.TripCount != 0 {
		b = appendInt(append(b, `,"trip_count":`...), w.TripCount)
	}
	if w.HasConditional {
		b = append(b, `,"has_conditional":true`...)
	}
	b = append(b, `,"values":`...)
	if w.Values == nil {
		b = append(b, "null"...)
	} else {
		mark := len(b)
		for i := range w.Values {
			var err error
			if b, err = appendValue(append(b, ','), &w.Values[i]); err != nil {
				return nil, err
			}
		}
		b = closeArray(b, mark)
	}
	b = append(b, `,"ops":`...)
	if w.Ops == nil {
		b = append(b, "null"...)
	} else {
		mark := len(b)
		for i := range w.Ops {
			b = appendOp(append(b, ','), &w.Ops[i])
		}
		b = closeArray(b, mark)
	}
	if len(w.Deps) > 0 {
		b = append(b, `,"deps":`...)
		mark := len(b)
		for i := range w.Deps {
			b = appendDep(append(b, ','), &w.Deps[i])
		}
		b = closeArray(b, mark)
	}
	return append(b, '}'), nil
}

func appendValue(b []byte, v *Value) ([]byte, error) {
	b = append(b, `{"name":`...)
	b = appendString(b, v.Name)
	b = append(b, `,"file":`...)
	b = appendString(b, v.File)
	b = append(b, `,"type":`...)
	b = appendString(b, v.Type)
	if v.LiveOut {
		b = append(b, `,"live_out":true`...)
	}
	if c := v.Const; c != nil {
		b = append(b, `,"const":`...)
		mark := len(b)
		if c.I != 0 {
			b = appendInt(append(b, `,"i":`...), c.I)
		}
		if c.F != 0 {
			if math.IsInf(c.F, 0) || math.IsNaN(c.F) {
				return nil, fmt.Errorf("wire: value %s: unsupported constant %v", v.Name, c.F)
			}
			b = appendFloat(append(b, `,"f":`...), c.F)
		}
		if c.B {
			b = append(b, `,"b":true`...)
		}
		b = closeObject(b, mark)
	}
	return append(b, '}'), nil
}

func appendOp(b []byte, o *Op) []byte {
	b = append(b, `{"opcode":`...)
	b = appendString(b, o.Opcode)
	if len(o.Args) > 0 {
		b = append(b, `,"args":`...)
		mark := len(b)
		for i := range o.Args {
			b = appendOperand(append(b, ','), &o.Args[i])
		}
		b = closeArray(b, mark)
	}
	b = appendInt(append(b, `,"result":`...), o.Result)
	if o.Pred != nil {
		b = appendOperand(append(b, `,"pred":`...), o.Pred)
	}
	if o.PredNeg {
		b = append(b, `,"pred_neg":true`...)
	}
	return append(b, '}')
}

func appendOperand(b []byte, o *Operand) []byte {
	b = appendInt(append(b, `{"val":`...), o.Val)
	if o.Omega != 0 {
		b = appendInt(append(b, `,"omega":`...), o.Omega)
	}
	return append(b, '}')
}

func appendDep(b []byte, d *Dep) []byte {
	b = appendInt(append(b, `{"from":`...), d.From)
	b = appendInt(append(b, `,"to":`...), d.To)
	b = appendInt(append(b, `,"latency":`...), d.Latency)
	if d.Omega != 0 {
		b = appendInt(append(b, `,"omega":`...), d.Omega)
	}
	b = append(b, `,"kind":`...)
	b = appendString(b, d.Kind)
	return append(b, '}')
}

func appendSpec(b []byte, s *machine.Spec) []byte {
	b = append(b, `{"name":`...)
	b = appendString(b, s.Name)
	b = append(b, `,"units":`...)
	if s.Units == nil {
		b = append(b, "null"...)
	} else {
		mark := len(b)
		for _, u := range s.Units {
			b = append(b, `,{"name":`...)
			b = appendString(b, u.Name)
			b = appendInt(append(b, `,"count":`...), u.Count)
			if u.NotPipelined {
				b = append(b, `,"not_pipelined":true`...)
			}
			b = append(b, '}')
		}
		b = closeArray(b, mark)
	}
	b = append(b, `,"profiles":`...)
	if s.Profiles == nil {
		b = append(b, "null"...)
	} else {
		mark := len(b)
		for _, p := range s.Profiles {
			b = append(b, `,{"ops":`...)
			if p.Ops == nil {
				b = append(b, "null"...)
			} else {
				mark := len(b)
				for _, op := range p.Ops {
					b = appendString(append(b, ','), op)
				}
				b = closeArray(b, mark)
			}
			b = append(b, `,"unit":`...)
			b = appendString(b, p.Unit)
			b = appendInt(append(b, `,"latency":`...), p.Latency)
			if p.Busy != 0 {
				b = appendInt(append(b, `,"busy":`...), p.Busy)
			}
			b = append(b, '}')
		}
		b = closeArray(b, mark)
	}
	if len(s.RegFiles) > 0 {
		b = append(b, `,"reg_files":`...)
		mark := len(b)
		for _, f := range s.RegFiles {
			b = append(b, `,{"name":`...)
			b = appendString(b, f.Name)
			if f.Rotating {
				b = append(b, `,"rotating":true`...)
			}
			if f.Size != 0 {
				b = appendInt(append(b, `,"size":`...), f.Size)
			}
			b = append(b, '}')
		}
		b = closeArray(b, mark)
	}
	return append(b, '}')
}

func appendInt[T int | int64](b []byte, v T) []byte {
	return strconv.AppendInt(b, int64(v), 10)
}

// appendFloat formats a finite float64 as encoding/json does: like
// ES6 number-to-string, %f-style in [1e-6, 1e21) and exponent form
// outside it, with a one-digit negative exponent left unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(b)
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		if n := len(b); n-start >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way json.Marshal does:
// HTML-significant characters (<, >, &), U+2028 and U+2029 are
// \u-escaped, control characters use the short escapes \b \f \n \r \t
// where they exist and \u00XX otherwise, and each byte of invalid UTF-8
// becomes �.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
