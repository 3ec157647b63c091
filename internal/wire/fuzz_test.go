package wire

import "testing"

// FuzzDecodeRequest fuzzes the request decoder, the untrusted boundary
// of lsmsd. For every input: no panic; the decoder and the
// encoding/json oracle agree on the verdict and, on accept, on the
// decoded request (from fresh and from reused scratch storage); and for
// every request that normalizes, the canonical bytes equal
// json.Marshal's and re-decoding them reproduces the content hash
// (checkDecode). Seeds: both golden fixtures, IR- and source-form
// loopgen requests, and one document per decode rule (trapDocs).
//
//	go test -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 20s ./internal/wire
func FuzzDecodeRequest(f *testing.F) {
	f.Add(readGolden(f, "daxpy.wire.json"))
	f.Add(readGolden(f, "daxpy.spec.wire.json"))
	irDocs, srcDocs := corpusDocs(f, 6, 1993)
	for i := range irDocs {
		f.Add(irDocs[i])
		f.Add(srcDocs[i])
	}
	for _, d := range trapDocs(f) {
		f.Add(d.doc)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}
