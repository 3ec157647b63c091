package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/frontend"
	"repro/internal/loopgen"
	"repro/internal/machine"
)

// corpusDocs returns the IR- and source-form request bodies of a
// loopgen corpus, as clients send them (json.Marshal of the request).
// A source holding several loops contributes consecutive entries, each
// selecting its loop by LoopIndex.
func corpusDocs(tb testing.TB, size int, seed int64) (irDocs, srcDocs [][]byte) {
	tb.Helper()
	s, err := loopgen.Build(loopgen.Options{Size: size, Seed: seed})
	if err != nil {
		tb.Fatalf("building corpus: %v", err)
	}
	idx := 0
	for i, l := range s.Loops {
		if i > 0 && s.Loops[i-1].Source == l.Source {
			idx++
		} else {
			idx = 0
		}
		req, err := NewRequest(l.CL.Loop, "", Options{})
		if err != nil {
			tb.Fatalf("%s: %v", l.Name, err)
		}
		b, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		irDocs = append(irDocs, b)
		b, err = json.Marshal(&Request{Version: Version, Machine: req.Machine, Source: l.Source, LoopIndex: idx})
		if err != nil {
			tb.Fatal(err)
		}
		srcDocs = append(srcDocs, b)
	}
	return irDocs, srcDocs
}

func readGolden(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.TrimRight(b, "\n")
}

type namedDoc struct {
	name string
	doc  []byte
}

const triadSource = `      subroutine triad(n, q, a, b, c)
      real a(1001), b(1001), c(1001), q
      integer n, i
      do i = 1, 1000
        a(i) = b(i) + q*c(i)
      end do
      end
`

// trapDocs returns one document per decode rule the codec shares with
// encoding/json (decode.go), mostly edits of the golden fixture. Some
// are accepted and some rejected; the oracle decides which.
func trapDocs(tb testing.TB) []namedDoc {
	tb.Helper()
	base := string(readGolden(tb, "daxpy.wire.json"))
	edit := func(old, new string) []byte {
		if !strings.Contains(base, old) {
			tb.Fatalf("trap edit: %q not in the golden fixture", old)
		}
		return []byte(strings.Replace(base, old, new, 1))
	}
	// atLoopEnd inserts members at the end of the loop object.
	atLoopEnd := func(members string) []byte {
		return []byte(base[:len(base)-2] + "," + members + "}}")
	}
	nest := func(n int) []byte {
		return edit(`"options":{}`, `"options":{},"extra":`+strings.Repeat("[", n)+strings.Repeat("]", n))
	}
	src, _ := json.Marshal(triadSource)
	return []namedDoc{
		{"fold Kelvin sign", edit(`"kind":"mem"`, "\"\u212aind\":\"mem\"")},
		{"fold long s", edit(`"scheduler":"slack"`, "\"\u017fcheduler\":\"slack\"")},
		{"fold long s source", []byte("{\"version\":\"lsms-wire/2\",\"machine\":\"cydra\",\"\u017fource\":" + string(src) + "}")},
		{"fold upper and escaped keys", edit(`"values":`, `"VALUES":`)},
		{"fold escaped key", edit(`"ops":`, `"\u006fps":`)},
		{"fold non-matching", edit(`"trip_count":1000`, `"trip_count":1000,"tri\u00e7_count":5`)},
		{"unknown keys skipped", edit(`"options":{}`, `"options":{},"extra":{"a":[1,-2.5e3,{"b":null}],"c":"\u00e9\n","d":true}`)},
		{"unknown key invalid value", edit(`"options":{}`, `"options":{},"extra":[1,]`)},
		{"unknown key bad literal", edit(`"options":{}`, `"options":{},"extra":nul`)},
		{"repeat merges elements", atLoopEnd(`"ops":[{"result":4}]`)},
		{"repeat merges fields", atLoopEnd(`"values":[{"live_out":true},{"const":{"f":2.5}}]`)},
		{"repeat options", edit(`"options":{}`, `"options":{"max_ii":7},"options":{"degrade":true}`)},
		{"repeat loop", []byte(`{"loop":5,` + base[1:])},
		{"repeat loop object", []byte(`{"loop":{"name":"x","has_conditional":true,"values":[{"live_out":true,"const":{"b":true}}],"ops":[{"pred":{"val":0}}],"deps":[{"omega":3}]},` + base[1:])},
		{"repeat loop type error", []byte(`{"loop":{"values":7},` + base[1:])},
		{"repeat loop then null", []byte(base[:len(base)-1] + `,"loop":null}`)},
		{"null options", edit(`"options":{}`, `"options":null`)},
		{"null const", edit(`"const":{"i":1}`, `"const":null`)},
		{"empty const", edit(`"const":{"i":1}`, `"const":{}`)},
		{"null pred", edit(`"result":3}`, `"result":3,"pred":null}`)},
		{"null values", atLoopEnd(`"values":null`)},
		{"empty deps", atLoopEnd(`"deps":[]`)},
		{"empty args", edit(`{"opcode":"brtop","result":-1}`, `{"opcode":"brtop","args":[],"result":-1}`)},
		{"null array element", atLoopEnd(`"deps":[null]`)},
		{"null scalars", edit(`"name":"daxpy"`, `"name":null,"num_bb":null,"has_conditional":null`)},
		{"integer float literal", edit(`"result":3`, `"result":3.0`)},
		{"integer exponent literal", edit(`"result":3`, `"result":3e0`)},
		{"integer max", edit(`"trip_count":1000`, `"trip_count":9223372036854775807`)},
		{"integer overflow", edit(`"trip_count":1000`, `"trip_count":9223372036854775808`)},
		{"integer wraps uint64", edit(`"trip_count":1000`, `"trip_count":18446744073709551617`)},
		{"integer min", edit(`"trip_count":1000`, `"trip_count":-9223372036854775808`)},
		{"integer negative zero", edit(`"trip_count":1000`, `"trip_count":-0`)},
		{"float out of range", edit(`"const":{"i":1}`, `"const":{"i":1,"f":1e400}`)},
		{"float underflow", edit(`"const":{"i":1}`, `"const":{"i":1,"f":1e-400}`)},
		{"float negative zero", edit(`"const":{"i":1}`, `"const":{"i":1,"f":-0}`)},
		{"float small", edit(`"const":{"i":1}`, `"const":{"i":1,"f":1e-7}`)},
		{"float long", edit(`"const":{"i":1}`, `"const":{"i":1,"f":0.30000000000000004}`)},
		{"float integer", edit(`"const":{"i":1}`, `"const":{"f":1234567890123456789}`)},
		{"bool type error", edit(`"const":{"i":1}`, `"const":{"b":1}`)},
		{"invalid utf-8", edit(`"name":"daxpy"`, "\"name\":\"dax\xffpy\xc3\"")},
		{"surrogates", edit(`"name":"daxpy"`, `"name":"\ud83d\ude00 \ud800x\udc00\ud800"`)},
		{"surrogate then escape", edit(`"name":"daxpy"`, `"name":"\ud800\u0041\udbff\udfff"`)},
		{"utf-8 surrogate bytes", edit(`"name":"daxpy"`, "\"name\":\"\xed\xa0\x80\"")},
		{"raw control char", edit(`"name":"daxpy"`, "\"name\":\"dax\x01py\"")},
		{"escaped control chars", edit(`"name":"daxpy"`, `"name":"d\u0001\b\f\n\r\t\"\\\/y"`)},
		{"html and separators", edit(`"name":"daxpy"`, `"name":"<a&b>\u2028\u2029"`)},
		{"bad escape", edit(`"name":"daxpy"`, `"name":"\x"`)},
		{"single-quote escape", edit(`"name":"daxpy"`, `"name":"\'"`)},
		{"short unicode escape", edit(`"name":"daxpy"`, `"name":"\u12"`)},
		{"leading zero", edit(`"result":3`, `"result":03`)},
		{"bare minus", edit(`"result":3`, `"result":-`)},
		{"bare fraction", edit(`"result":3`, `"result":3.`)},
		{"plus sign", edit(`"result":3`, `"result":+3`)},
		{"capital literal", atLoopEnd(`"has_conditional":True`)},
		{"version type error", edit(`"version":"lsms-wire/2"`, `"version":2`)},
		{"options type error", edit(`"options":{}`, `"options":[]`)},
		{"values type error", atLoopEnd(`"values":{}`)},
		{"op type error", atLoopEnd(`"ops":[5]`)},
		{"bool string", atLoopEnd(`"has_conditional":"true"`)},
		{"trailing garbage", []byte(base + " x")},
		{"trailing value", []byte(base + "{}")},
		{"trailing NUL", []byte(base + "\x00")},
		{"trailing whitespace", []byte(base + "\n\t \r")},
		{"trailing comma", edit(`"kind":"mem"}]`, `"kind":"mem"},]`)},
		{"missing colon", edit(`"name":"daxpy"`, `"name" "daxpy"`)},
		{"unterminated", []byte(base[:len(base)-1])},
		{"nesting at limit", nest(maxDepth - 1)},
		{"nesting over limit", nest(maxDepth)},
		{"top-level null", []byte(`null`)},
		{"top-level array", []byte(`[]`)},
		{"top-level string", []byte(`"x"`)},
		{"empty body", nil},
		{"empty object", []byte(` {} `)},
		{"null spec", edit(`"machine":"cydra",`, `"machine":"cydra","machine_spec":null,`)},
		{"repeat spec", edit(`"machine":"cydra",`, `"machine":"cydra","machine_spec":5,"machine_spec":null,`)},
		{"spec type error", edit(`"machine":"cydra",`, `"machine":"cydra","machine_spec":[],`)},
		{"empty spec", edit(`"machine":"cydra",`, `"machine":"cydra","MACHINE_SPEC":{},`)},
		{"pretty-printed", indent(tb, base)},
	}
}

func indent(tb testing.TB, doc string) []byte {
	var b bytes.Buffer
	if err := json.Indent(&b, []byte(doc), "", "\t"); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// checkDecode holds the decoder to the oracle on one body: the same
// verdict and, on accept, a DeepEqual request — both from fresh storage
// and after each scratch has served the golden fixture. For a request
// that normalizes, the canonical bytes must equal json.Marshal's, and
// re-decoding them must reproduce the content hash. It reports whether
// the body decoded.
func checkDecode(t *testing.T, body []byte) bool {
	t.Helper()
	var s, dirty Scratch
	var o, dirtyOracle oracleScratch
	got, gerr := s.DecodeRequest(body)
	want, werr := o.DecodeRequest(body)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("verdicts differ on %q:\ndecoder: %v\noracle:  %v", body, gerr, werr)
	}
	if gerr != nil {
		return false
	}
	if !reflect.DeepEqual(got, want) || !sameConstBits(got, want) {
		t.Fatalf("decoded requests differ on %q:\ndecoder: %+v\noracle:  %+v", body, got, want)
	}
	golden := readGolden(t, "daxpy.wire.json")
	if _, err := dirty.DecodeRequest(golden); err != nil {
		t.Fatal(err)
	}
	if _, err := dirtyOracle.DecodeRequest(golden); err != nil {
		t.Fatal(err)
	}
	reused, err := dirty.DecodeRequest(body)
	if err != nil {
		t.Fatalf("decode after reuse failed: %v", err)
	}
	reusedWant, _ := dirtyOracle.DecodeRequest(body)
	if !reflect.DeepEqual(reused, reusedWant) {
		t.Fatalf("decoded requests differ after reuse on %q:\ndecoder: %+v\noracle:  %+v", body, reused, reusedWant)
	}

	n, _, err := got.Normalize()
	if err != nil {
		return true
	}
	canon, err := n.Canonical()
	ref, rerr := oracleCanonical(n)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("canonical encode verdicts differ: %v vs json.Marshal %v", err, rerr)
	}
	if err != nil {
		return true
	}
	if !bytes.Equal(canon, ref) {
		t.Fatalf("canonical bytes differ from json.Marshal:\nencoder: %s\nmarshal: %s", canon, ref)
	}
	h, err := n.Hash()
	if err != nil {
		t.Fatalf("hash of a normalized request: %v", err)
	}
	if want := oracleHash(t, got); h != want {
		t.Fatalf("hash %s, json.Marshal oracle %s", h, want)
	}
	var again Scratch
	r2, err := again.DecodeRequest(canon)
	if err != nil {
		t.Fatalf("canonical bytes do not decode: %v\n%s", err, canon)
	}
	h2, err := r2.Hash()
	if err != nil {
		t.Fatalf("canonical bytes do not hash: %v\n%s", err, canon)
	}
	if h2 != h {
		t.Fatalf("re-decoded canonical bytes hash %s, want %s", h2, h)
	}
	return true
}

// sameConstBits compares the float constants bit for bit, which
// DeepEqual does not: it takes -0 and 0 as equal, but the scheduled
// loop's semantics may not.
func sameConstBits(a, b *Request) bool {
	if a.Loop == nil || b.Loop == nil || len(a.Loop.Values) != len(b.Loop.Values) {
		return true // DeepEqual decides
	}
	for i, v := range a.Loop.Values {
		if w := b.Loop.Values[i]; v.Const != nil && w.Const != nil &&
			math.Float64bits(v.Const.F) != math.Float64bits(w.Const.F) {
			return false
		}
	}
	return true
}

// oracleHash is Hash as it was before the hand-written encoder: a full
// Normalize, then SHA-256 over json.Marshal of its oracleForm with the
// deadline zeroed.
func oracleHash(t *testing.T, r *Request) string {
	t.Helper()
	n, _, err := r.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	f, err := oracleForm(n)
	if err != nil {
		t.Fatal(err)
	}
	h := *f
	h.Options.DeadlineMS = 0
	b, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// TestDecodeMatchesOracle runs checkDecode over the trap documents, the
// golden fixtures, and the IR and source forms of a loopgen corpus, then
// streams every accepted document through one pooled scratch per
// decoder and compares the canonical bytes and hashes.
func TestDecodeMatchesOracle(t *testing.T) {
	size := 60
	if testing.Short() {
		size = 20
	}
	irDocs, srcDocs := corpusDocs(t, size, 1993)
	docs := trapDocs(t)
	docs = append(docs,
		namedDoc{"golden", readGolden(t, "daxpy.wire.json")},
		namedDoc{"golden spec", readGolden(t, "daxpy.spec.wire.json")})
	for i := range irDocs {
		docs = append(docs, namedDoc{"ir", irDocs[i]}, namedDoc{"source", srcDocs[i]})
	}
	accepted, normalized := 0, 0
	var stream [][]byte
	for _, d := range docs {
		t.Run(d.name, func(t *testing.T) {
			if checkDecode(t, d.doc) {
				accepted++
				stream = append(stream, d.doc)
			}
		})
	}
	if accepted == 0 || accepted == len(docs) {
		t.Fatalf("%d of %d documents accepted; the traps must include both verdicts", accepted, len(docs))
	}

	var s Scratch
	var o oracleScratch
	for i, body := range stream {
		got, err := s.DecodeRequest(body)
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		want, err := o.DecodeRequest(body)
		if err != nil {
			t.Fatalf("stream %d: oracle: %v", i, err)
		}
		gc, gerr := got.Canonical()
		wc, werr := want.Canonical()
		if (gerr == nil) != (werr == nil) || !bytes.Equal(gc, wc) {
			t.Fatalf("stream %d: pooled canonical forms differ:\ndecoder: %s (%v)\noracle:  %s (%v)", i, gc, gerr, wc, werr)
		}
		if gerr == nil {
			normalized++
			gh, _ := got.Hash()
			if wh := oracleHash(t, want); gh != wh {
				t.Fatalf("stream %d: pooled hash %s, oracle %s", i, gh, wh)
			}
		}
	}
	if normalized < 2*size {
		t.Errorf("only %d streamed documents normalized; want at least the %d corpus requests", normalized, 2*size)
	}
}

// TestCanonicalMatchesMarshal holds the canonical encoder to
// json.Marshal on requests the decoder never produces: raw Go strings
// with HTML, line separators, invalid UTF-8 and control characters,
// boundary floats, inline specs, v1 and source-form envelopes, and
// empty versus nil slices.
func TestCanonicalMatchesMarshal(t *testing.T) {
	m := machine.Cydra()
	base, err := NewRequest(fixture.Daxpy(m), "slack", Options{})
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *Request {
		b, _ := json.Marshal(base)
		var r Request
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		return &r
	}
	cases := map[string]func(r *Request){
		"as built": func(r *Request) {},
		"html and separators": func(r *Request) {
			r.Loop.Name = "<script>&amp;\u2028\u2029</script>"
			r.Scheduler = "a>b"
		},
		"invalid utf-8": func(r *Request) {
			r.Loop.Values[0].Name = "x\xffy\xc3\xed\xa0\x80z\xf0\x9f"
		},
		"control characters": func(r *Request) {
			r.Loop.Values[1].Name = "a\x00b\x01\x1f\x7f\t\n\r\b\f\"\\/"
			r.Machine = "\x1b[0m"
		},
		"every option": func(r *Request) {
			r.Options = Options{5, 7, 1 << 40, 9, true}
		},
		"v1 envelope":  func(r *Request) { r.Version = VersionV1 },
		"source form":  func(r *Request) { r.Loop, r.Source, r.LoopIndex = nil, triadSource, 2 },
		"no loop":      func(r *Request) { r.Loop = nil },
		"nil slices":   func(r *Request) { r.Loop.Values, r.Loop.Ops, r.Loop.Deps = nil, nil, nil },
		"empty slices": func(r *Request) { r.Loop.Values, r.Loop.Ops, r.Loop.Deps = []Value{}, []Op{}, []Dep{} },
		"empty args":   func(r *Request) { r.Loop.Ops[0].Args = []Operand{} },
		"pred and flags": func(r *Request) {
			r.Loop.Ops[2].Pred = &Operand{Val: 1, Omega: 2}
			r.Loop.Ops[2].PredNeg = true
			r.Loop.Values[3].LiveOut = true
			r.Loop.HasConditional = true
			r.Loop.Deps[0].Omega = -1
		},
		"empty const": func(r *Request) { r.Loop.Values[7].Const = &Const{} },
		"inline spec": func(r *Request) {
			r.MachineSpec = machine.FamilySpec("box<1>", machine.CydraLatencies())
		},
		"sparse spec": func(r *Request) {
			r.MachineSpec = &machine.Spec{
				Name:     "sparse",
				Profiles: []machine.ProfileSpec{{Unit: "u", Busy: 2}, {Ops: []string{}, Latency: -1}},
				RegFiles: []machine.RegFileSpec{{Name: "RR", Rotating: true, Size: 64}, {}},
			}
		},
		"empty spec": func(r *Request) { r.MachineSpec = &machine.Spec{Units: []machine.UnitSpec{}} },
	}
	for _, f := range []float64{1e-7, 1e20, 1e21, math.Copysign(0, -1), 5e-324, math.MaxFloat64,
		-math.MaxFloat64, 1e-6, 999999999999999999999, 0.1, -2.5, 123456789e-15, 1.5e300} {
		cases["float "+strconv.FormatFloat(f, 'g', -1, 64)] = func(r *Request) {
			r.Loop.Values[7].Const = &Const{I: -3, F: f, B: true}
		}
	}
	for name, mut := range cases {
		r := clone()
		mut(r)
		got, err := appendRequest(nil, r)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoder differs from json.Marshal:\nencoder: %s\nmarshal: %s", name, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := clone()
		r.Loop.Values[7].Const = &Const{F: f}
		if _, err := appendRequest(nil, r); err == nil {
			t.Errorf("constant %v encoded; json.Marshal rejects it", f)
		}
		if _, err := json.Marshal(r); err == nil {
			t.Fatalf("json.Marshal accepted constant %v", f)
		}
	}
}

// TestHashOfNormalizedRequest: hashing the request Normalize returned
// gives the same content address as hashing the original, for every
// request form, and both equal the json.Marshal-based hash.
func TestHashOfNormalizedRequest(t *testing.T) {
	ir, err := NewRequest(fixture.Daxpy(machine.Cydra()), "slack", Options{MaxII: 40, DeadlineMS: 900})
	if err != nil {
		t.Fatal(err)
	}
	src := &Request{Version: Version, Machine: "cydra", Scheduler: "cydrome", Source: triadSource}
	var v1, spec Request
	v1Doc := bytes.Replace(readGolden(t, "daxpy.wire.json"), []byte(Version), []byte(VersionV1), 1)
	if err := json.Unmarshal(v1Doc, &v1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(readGolden(t, "daxpy.spec.wire.json"), &spec); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Request{"ir": ir, "source": src, "v1": &v1, "inline spec": &spec} {
		want, err := r.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o := oracleHash(t, r); want != o {
			t.Errorf("%s: Hash %s, json.Marshal oracle %s", name, want, o)
		}
		n, _, err := r.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := n.Hash(); err != nil || got != want {
			t.Errorf("%s: Hash(Normalize(r)) = %s, %v; Hash(r) = %s", name, got, err, want)
		}
		canon, err := r.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := n.Canonical(); err != nil || !bytes.Equal(got, canon) {
			t.Errorf("%s: Canonical(Normalize(r)) differs from Canonical(r)", name)
		}
	}
}

// TestHashNormalizedAllocs: Hash on a normalized request returns the
// address Normalize kept, so it allocates nothing.
func TestHashNormalizedAllocs(t *testing.T) {
	var r Request
	if err := json.Unmarshal(readGolden(t, "daxpy.wire.json"), &r); err != nil {
		t.Fatal(err)
	}
	n, _, err := r.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := n.Hash(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Hash on a normalized request made %.0f allocations, want 0", allocs)
	}
}

// TestNormalizeSourceAllocs bounds source-form Normalize on the daxpy
// loop. With the token slice, the AST and unit memory and the lowering
// tables recycled, and values, ops and encoded slices cut from slabs of
// known size, it takes 26 allocations, one of them the content address
// and two the loop's canonical bytes and name; the bound leaves 4 of
// slack. Under the race detector, whose pools
// drop a quarter of what they are given, re-making the recycled memory
// adds about 20 on average; the allowance for it is half again as much.
// The memo stores nothing here, so every call runs the frontend;
// TestNormalizeMemoHitAllocs bounds a memo hit.
func TestNormalizeSourceAllocs(t *testing.T) {
	src, err := os.ReadFile("../../testdata/loops/daxpy.f")
	if err != nil {
		t.Fatal(err)
	}
	r := &Request{Version: Version, Machine: machine.PaperMachine, Source: string(src)}
	useMemo(t, newSourceMemo(0))
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
	})
	limit := 23.0 + 7
	if raceEnabled {
		limit += 30
	}
	if allocs > limit {
		t.Errorf("source-form Normalize made %.0f allocations, want ≤ %.0f", allocs, limit)
	}
}

// TestNormalizeMemoHitAllocs bounds a source-form Normalize served from
// the memo: the envelope copy and the content address, with no
// frontend and no IR. It takes 2 allocations; under the race detector,
// re-making the encoding buffer a dropped pool entry held adds up to 3
// on average (the allowance is twice that).
func TestNormalizeMemoHitAllocs(t *testing.T) {
	useMemo(t, newSourceMemo(MemoBudget))
	src, err := os.ReadFile("../../testdata/loops/daxpy.f")
	if err != nil {
		t.Fatal(err)
	}
	r := &Request{Version: Version, Machine: machine.PaperMachine, Source: string(src)}
	first, _, err := r.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		n, _, err := r.Normalize()
		if err != nil || !sameDoc(n, first) {
			t.Fatalf("Normalize missed the memo (%v)", err)
		}
	})
	limit := 2.0
	if raceEnabled {
		limit += 6
	}
	if allocs > limit {
		t.Errorf("memo-hit Normalize made %.0f allocations, want ≤ %.0f", allocs, limit)
	}
}

// TestNormalizeRejectsMemArcBlowup: a source loop whose memory arcs
// grow with the square of its stores is refused as ineligible, the
// same client error an oversized ResMII gets, before its arcs are built.
func TestNormalizeRejectsMemArcBlowup(t *testing.T) {
	var b strings.Builder
	b.WriteString("      subroutine blowup(n, x, y)\n      real x(8000), y(n)\n      integer n, i\n      do i = 1, n\n")
	for k := 0; k < 1000; k++ {
		fmt.Fprintf(&b, "        x(i+%d) = y(i)\n", 7*k)
	}
	b.WriteString("      end do\n      end\n")
	r := &Request{Version: Version, Machine: machine.PaperMachine, Source: b.String()}
	_, _, err := r.Normalize()
	if err == nil || !strings.Contains(err.Error(), "not modulo-schedulable") ||
		!strings.Contains(err.Error(), fmt.Sprintf("memory dependence arcs > %d", frontend.MaxMemArcs)) {
		t.Fatalf("Normalize = %v, want the memory-arc limit", err)
	}
}
