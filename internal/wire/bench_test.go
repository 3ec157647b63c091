package wire

import "testing"

// The wire-layer benchmarks time the three calls lsmsd makes on every
// request body — DecodeRequest, Normalize, Hash of the normalized
// request — one layer each, over the 120-loop loopgen corpus (seed
// 1993) in IR and source form, plus the inline-spec golden fixture.
// One op is one request; the corpus is cycled.
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

// BenchmarkWireNormalize times Normalize on decoded requests.
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

// BenchmarkWireHash times Hash on normalized requests.
func BenchmarkWireHash(b *testing.B) {
	for _, f := range benchForms(b) {
		b.Run(f.name, func(b *testing.B) {
			reqs := decodedForms(b, f)
			norms := make([]*Request, len(reqs))
			for i, r := range reqs {
				var err error
				if norms[i], _, err = r.Normalize(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, err := norms[i%len(norms)].Hash(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
