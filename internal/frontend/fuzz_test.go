package frontend_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frontend"
	"repro/internal/machine"
	"repro/internal/wire"
)

// parseErrorSources are sources the parser must reject.
var parseErrorSources = []string{
	"      subroutine s\n      do 10 i = 1, 5\n10    continue\n      end\n",
	"      subroutine s(x)\n      real x(5)\n      call foo(x)\n      end\n",
	"      subroutine s(x)\n      real x(5)\n      x(1) = x(2)**2\n      end\n",
}

func TestParseErrors(t *testing.T) {
	for i, src := range parseErrorSources {
		if _, err := frontend.Parse(src); err == nil {
			t.Errorf("case %d should fail to parse", i)
		}
	}
}

// FuzzFrontendCompile feeds untrusted mini-FORTRAN, as a source-form
// request carries it, through the whole frontend. Properties: no
// panic, and every loop the frontend lowers survives the wire round
// trip EncodeLoop → DecodeLoop → EncodeLoop with identical canonical
// bytes. Seeded from testdata/loops and the parse-error cases:
//
//	go test -run '^$' -fuzz '^FuzzFrontendCompile$' -fuzztime 10s ./internal/frontend
func FuzzFrontendCompile(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "loops", "*.f"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed loops (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range parseErrorSources {
		f.Add(src)
	}
	m := machine.Cydra()
	f.Fuzz(func(t *testing.T, src string) {
		_, loops, err := frontend.Compile(src, m)
		if err != nil {
			return
		}
		for i, cl := range loops {
			if cl.Ineligible != nil {
				continue
			}
			w, err := wire.EncodeLoop(cl.Loop)
			if err != nil {
				t.Fatalf("loop %d: %v", i, err)
			}
			l, err := w.DecodeLoop(m)
			if err != nil {
				t.Fatalf("loop %d: decoding its own encoding: %v", i, err)
			}
			again, err := wire.EncodeLoop(l)
			if err != nil {
				t.Fatalf("loop %d: %v", i, err)
			}
			if a, b := canonical(t, w, m), canonical(t, again, m); !bytes.Equal(a, b) {
				t.Fatalf("loop %d: canonical bytes change over a round trip:\n%s\n%s", i, a, b)
			}
		}
	})
}

// canonical returns the canonical bytes of the IR-form request for w.
func canonical(t *testing.T, w *wire.Loop, m *machine.Desc) []byte {
	t.Helper()
	b, err := (&wire.Request{Version: wire.Version, Machine: m.Name, Loop: w}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
