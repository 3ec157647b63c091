package wire

import (
	"testing"

	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/machine"
)

// The wire-layer benchmarks time the calls lsmsd makes on a request
// body — DecodeRequest and Normalize on every request, Lower only on a
// store miss — and Hash of a normalized request, one layer each, over
// the 120-loop loopgen corpus (seed 1993) in IR and source form, plus
// the inline-spec golden fixture. One op is one request; the corpus is
// cycled.
//
//	go test -run '^$' -bench 'BenchmarkWire' -benchmem ./internal/wire

type benchForm struct {
	name string
	docs [][]byte
}

func benchForms(b *testing.B) []benchForm {
	irDocs, srcDocs := corpusDocs(b, 120, 1993)
	return []benchForm{
		{"ir", irDocs},
		{"source", srcDocs},
		{"spec", [][]byte{readGolden(b, "daxpy.spec.wire.json")}},
	}
}

// BenchmarkWireDecode times DecodeRequest on pooled scratch storage,
// released after each request as the server releases it.
func BenchmarkWireDecode(b *testing.B) {
	for _, f := range benchForms(b) {
		b.Run(f.name, func(b *testing.B) {
			var scr Scratch
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, err := scr.DecodeRequest(f.docs[i%len(f.docs)]); err != nil {
					b.Fatal(err)
				}
				scr.Reset()
			}
		})
	}
}

// decodedForms decodes every document of each form into its own
// scratch, for the benchmarks of the layers after decode.
func decodedForms(b *testing.B, f benchForm) []*Request {
	reqs := make([]*Request, len(f.docs))
	for i, doc := range f.docs {
		var err error
		if reqs[i], err = new(Scratch).DecodeRequest(doc); err != nil {
			b.Fatal(err)
		}
	}
	return reqs
}

// BenchmarkWireNormalize times Normalize on decoded requests: the
// canonical form plus one encode and digest of it, the content hash.
// It builds no IR. The corpus fits the source memo, so past the first
// cycle a source-form op is a memo hit; BenchmarkFrontend times the
// lowering itself.
func BenchmarkWireNormalize(b *testing.B) {
	for _, f := range benchForms(b) {
		b.Run(f.name, func(b *testing.B) {
			reqs := decodedForms(b, f)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, _, err := reqs[i%len(reqs)].Normalize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireLower times Lower on normalized requests: DecodeLoop and
// ir.Finalize of the document, the work a store miss adds to
// Normalize. An IR-form request holds its document; a source-form one
// holds canonical bytes, which Lower parses back into a document first.
// The source row's bytes are the frontend's, normalized through a
// memo that stores nothing; the source-memo row's are the memo's, the
// lowering a memo hit that misses the store pays for.
func BenchmarkWireLower(b *testing.B) {
	forms := benchForms(b)
	forms = append(forms, benchForm{"source-memo", forms[1].docs})
	for _, f := range forms {
		b.Run(f.name, func(b *testing.B) {
			switch f.name {
			case "source":
				useMemo(b, newSourceMemo(0))
			case "source-memo":
				m := useMemo(b, newSourceMemo(MemoBudget))
				defer func() {
					if len(m.docs) != len(f.docs) {
						b.Fatalf("memo holds %d of %d documents", len(m.docs), len(f.docs))
					}
				}()
			}
			norms := normalizedForms(b, f)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, err := norms[i%len(norms)].Lower(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// normalizedForms normalizes every request decodedForms gives.
func normalizedForms(b *testing.B, f benchForm) []*Request {
	reqs := decodedForms(b, f)
	for i, r := range reqs {
		var err error
		if reqs[i], _, err = r.Normalize(); err != nil {
			b.Fatal(err)
		}
	}
	return reqs
}

// BenchmarkWireHash times Hash on normalized requests, which returns
// the address Normalize kept.
func BenchmarkWireHash(b *testing.B) {
	for _, f := range benchForms(b) {
		b.Run(f.name, func(b *testing.B) {
			norms := normalizedForms(b, f)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, err := norms[i%len(norms)].Hash(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrontend splits source-form Normalize into its layers, over
// the sources of the same 120-loop corpus; one op is one loop. Each
// layer runs on the previous layers' output, prepared outside the
// timing, except that parse includes lexing (Parse lexes its input).
// lower includes ir.Finalize. Parse and Analyze allocate a new AST and
// unit each time; compile-index is lex through lower as Normalize runs
// them, with that memory recycled.
//
//	go test -run '^$' -bench 'BenchmarkFrontend' -benchmem ./internal/wire
func BenchmarkFrontend(b *testing.B) {
	s, err := loopgen.Build(loopgen.Options{Size: 120, Seed: 1993})
	if err != nil {
		b.Fatal(err)
	}
	m := machine.Cydra()
	n := len(s.Loops)
	progs := make([]*frontend.Program, n)
	units := make([]*frontend.Unit, n)
	dos := make([]*frontend.DoStmt, n)
	idxs := make([]int, n)
	loops := make([]*ir.Loop, n)
	idx := 0
	for i, l := range s.Loops {
		if i > 0 && s.Loops[i-1].Source == l.Source {
			idx++
		} else {
			idx = 0
		}
		if progs[i], err = frontend.Parse(l.Source); err != nil {
			b.Fatal(err)
		}
		if units[i], err = frontend.Analyze(progs[i]); err != nil {
			b.Fatal(err)
		}
		dos[i], idxs[i] = units[i].InnermostLoops()[idx], idx
		loops[i] = l.CL.Loop
	}
	layers := []struct {
		name string
		run  func(i int) error
	}{
		{"parse", func(i int) error { _, err := frontend.Parse(s.Loops[i].Source); return err }},
		{"analyze", func(i int) error { _, err := frontend.Analyze(progs[i]); return err }},
		{"lower", func(i int) error { return frontend.Lower(units[i], dos[i], m).Ineligible }},
		{"encode", func(i int) error { _, err := EncodeLoop(loops[i]); return err }},
		{"compile-index", func(i int) error {
			_, _, err := frontend.CompileIndex(s.Loops[i].Source, idxs[i], m)
			return err
		}},
	}
	for _, layer := range layers {
		b.Run(layer.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if err := layer.run(i % n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
