package wire

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/loopgen"
)

// TestScratchDecodeMatchesFresh is the reuse differential: decoding a
// sequence of requests through one Scratch — each decode merging into
// the previous request's recycled storage — must be indistinguishable
// from decoding each into a fresh Request. Loops of shrinking and
// growing sizes interleave so slice-capacity reuse (the stale-element
// hazard Reset exists to kill) is actually exercised, and a source-form
// request rides along to prove a stale Loop pointer cannot survive into
// it. Equality is judged on canonical bytes and content hash — the
// currencies the server trades in.
func TestScratchDecodeMatchesFresh(t *testing.T) {
	size := 60
	if testing.Short() {
		size = 24
	}
	w, err := loopgen.Build(loopgen.Options{Size: size, Seed: 77})
	if err != nil {
		t.Fatalf("building workload: %v", err)
	}
	bodies := make([][]byte, 0, len(w.Loops)+1)
	for i, wl := range w.Loops {
		opt := Options{}
		if i%3 == 1 {
			// Vary the options so absent keys in the next document must
			// not inherit these values.
			opt = Options{MaxII: 100, MaxIIAttempts: 7, Degrade: true}
		}
		req, err := NewRequest(wl.CL.Loop, []string{"slack", ""}[i%2], opt)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		bodies = append(bodies, b)
	}
	src, _ := json.Marshal(&Request{
		Version: Version,
		Machine: "cydra",
		Source: `      subroutine saxpy(n, a, x, y)
      real a, x(1001), y(1001)
      integer n, i
      do i = 1, n
        y(i) = a*x(i) + y(i)
      end do
      end`,
	})
	// The source-form request lands right after an IR-form one: a Reset
	// that leaked the previous Loop pointer would make it carry both
	// payloads, which Normalize refuses.
	bodies = append(bodies[:len(bodies)/2:len(bodies)/2],
		append([][]byte{src}, bodies[len(bodies)/2:]...)...)

	var scr Scratch
	for i, body := range bodies {
		var fresh Request
		if err := json.Unmarshal(body, &fresh); err != nil {
			t.Fatalf("request %d: fresh decode: %v", i, err)
		}
		reused, err := scr.DecodeRequest(body)
		if err != nil {
			t.Fatalf("request %d: scratch decode: %v", i, err)
		}
		wantCanon, err := fresh.Canonical()
		if err != nil {
			t.Fatalf("request %d: fresh canonical: %v", i, err)
		}
		gotCanon, err := reused.Canonical()
		if err != nil {
			t.Fatalf("request %d: scratch canonical: %v", i, err)
		}
		if string(wantCanon) != string(gotCanon) {
			t.Fatalf("request %d: canonical bytes diverge after scratch reuse:\nfresh:   %s\nscratch: %s",
				i, wantCanon, gotCanon)
		}
		wantHash, err := fresh.Hash()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		gotHash, err := reused.Hash()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if wantHash != gotHash {
			t.Fatalf("request %d: content hash diverges after scratch reuse: %s vs %s", i, wantHash, gotHash)
		}
	}
}

// TestScratchReleaseRetainsNoRequestData asserts the release-path
// invariant: after Reset, the scratch holds capacity but no decoded
// strings, loop contents, or unquoted bytes from the requests it
// served. The source-form request's escaped newlines route its decode
// through the unquote buffer, so that buffer is checked too.
func TestScratchReleaseRetainsNoRequestData(t *testing.T) {
	w, err := loopgen.Build(loopgen.Options{Size: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	req, err := NewRequest(w.Loops[0].CL.Loop, "slack", Options{MaxII: 9})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(req)
	src, _ := json.Marshal(&Request{Version: Version, Machine: "cydra", Source: w.Loops[0].Source})
	var scr Scratch
	for _, b := range [][]byte{body, src} {
		if _, err := scr.DecodeRequest(b); err != nil {
			t.Fatal(err)
		}
	}
	scr.Reset()
	if scr.req != (Request{}) {
		t.Errorf("request envelope retained after Reset: %+v", scr.req)
	}
	if len(scr.dec.buf) != 0 || cap(scr.dec.buf) == 0 {
		t.Errorf("unquote buffer: len %d cap %d after Reset, want empty with capacity kept", len(scr.dec.buf), cap(scr.dec.buf))
	}
	for i, c := range scr.dec.buf[:cap(scr.dec.buf)] {
		if c != 0 {
			t.Fatalf("unquoted request bytes retained after Reset at %d: %q", i, scr.dec.buf[:cap(scr.dec.buf)])
		}
	}
	if d := &scr.doc; d.Name != "" || len(d.Values) != 0 || len(d.Ops) != 0 || len(d.Deps) != 0 {
		t.Errorf("loop document retained after Reset: %+v", d)
	}
	for _, v := range scr.doc.Values[:cap(scr.doc.Values)] {
		if v != (Value{}) {
			t.Fatalf("stale value beyond len after Reset: %+v", v)
		}
	}
	for _, op := range scr.doc.Ops[:cap(scr.doc.Ops)] {
		if op.Opcode != "" || op.Pred != nil || op.Result != 0 || op.PredNeg || len(op.Args) != 0 {
			t.Fatalf("stale op beyond len after Reset: %+v", op)
		}
	}
}

// TestScratchResetClearsWhatDecodesWrote: Reset clears the pooled
// storage only up to the longest each slice has been since the last
// Reset, so those marks must cover every element a decode wrote. A
// 140-op document, a 5-op one, and one whose repeated "values" key is
// shorter the second time go through one Scratch, released after each
// as the server releases it. Each decode must encode as a fresh decode
// does, and after each release no element within any slice's capacity,
// nor any byte of the unquote buffer, may hold data.
func TestScratchResetClearsWhatDecodesWrote(t *testing.T) {
	doc := func(nops int) []byte {
		l := &Loop{Name: fmt.Sprintf("loop\t%d", nops), NumBB: 2, TripCount: 9, HasConditional: true}
		for i := 0; i <= nops; i++ {
			v := Value{Name: fmt.Sprintf("value\n%d", i), File: "RR", Type: "float", LiveOut: i%2 == 0}
			if i%3 == 0 {
				v.Const = &Const{I: int64(i), F: 1.5, B: true}
			}
			l.Values = append(l.Values, v)
		}
		for i := 0; i < nops; i++ {
			op := Op{Opcode: "fadd", Result: i + 1, PredNeg: i%2 == 1,
				Args: []Operand{{Val: i, Omega: i % 3}, {Val: (i + 1) % nops, Omega: 1}}}
			if i%4 == 0 {
				op.Pred = &Operand{Val: 0, Omega: 2}
			}
			l.Ops = append(l.Ops, op)
			if i%5 == 0 {
				l.Deps = append(l.Deps, Dep{From: i, To: (i + 1) % nops, Latency: 3, Omega: 2, Kind: "mem"})
			}
		}
		b, err := json.Marshal(&Request{Version: Version, Machine: "cydra", Options: Options{MaxII: 7}, Loop: l})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dup := []byte(`{"version":"lsms-wire/2","machine":"cydra","loop":{"name":"dup",
		"values":[{"name":"a","file":"RR","type":"int","live_out":true,"const":{"i":4}},
			{"name":"b\u0009","file":"GPR","type":"addr"},{"name":"c","file":"RR","type":"float"}],
		"ops":[{"opcode":"iadd","args":[{"val":0,"omega":1}],"result":1}],
		"values":[{"name":"z"}]}}`)
	var scr Scratch
	for i, body := range [][]byte{doc(140), doc(5), dup} {
		var fresh Request
		if err := json.Unmarshal(body, &fresh); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		got, err := scr.DecodeRequest(body)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		want, _ := appendRequest(nil, &fresh)
		have, _ := appendRequest(nil, got)
		if string(want) != string(have) {
			t.Fatalf("doc %d decodes differently through the scratch:\nfresh:   %s\nscratch: %s", i, want, have)
		}
		scr.Reset()
		d := &scr.doc
		for _, v := range d.Values[:cap(d.Values)] {
			if v != (Value{}) {
				t.Fatalf("doc %d: stale value after Reset: %+v", i, v)
			}
		}
		for _, op := range d.Ops[:cap(d.Ops)] {
			if op.Opcode != "" || op.Pred != nil || op.Result != 0 || op.PredNeg || len(op.Args) != 0 {
				t.Fatalf("doc %d: stale op after Reset: %+v", i, op)
			}
			for _, a := range op.Args[:cap(op.Args)] {
				if a != (Operand{}) {
					t.Fatalf("doc %d: stale operand after Reset: %+v", i, a)
				}
			}
		}
		for _, dep := range d.Deps[:cap(d.Deps)] {
			if dep != (Dep{}) {
				t.Fatalf("doc %d: stale dep after Reset: %+v", i, dep)
			}
		}
		for k, c := range scr.dec.buf[:cap(scr.dec.buf)] {
			if c != 0 {
				t.Fatalf("doc %d: unquoted bytes retained after Reset at %d", i, k)
			}
		}
		if scr.dec.hw != (highWater{}) {
			t.Fatalf("doc %d: marks %+v survive Reset", i, scr.dec.hw)
		}
	}
	if cap(scr.doc.Ops) < 140 || cap(scr.dec.buf) == 0 {
		t.Errorf("Reset dropped capacity: %d ops, %d unquote bytes", cap(scr.doc.Ops), cap(scr.dec.buf))
	}
}
