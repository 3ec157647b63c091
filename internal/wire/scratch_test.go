package wire

import (
	"encoding/json"
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
			opt = Options{MaxII: 100, IncrementByOne: true, Degrade: true}
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
	// that leaked the previous Loop pointer would make it fail Validate.
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
