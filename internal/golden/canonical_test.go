package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/wire"
)

// TestCanonicalHashes pins the content address of every corpus loop.
// testdata/golden/canonical.hashes has one line per loop of corpus
// seed 1993 on the paper's machine:
//
//	loop sha256:<hex>
//
// the Hash of the loop's source-form request, which must also equal the
// Hash of its IR-form request. lsmsd's disk store keys its records by
// these hashes, so a change to value names or to op or dep order would
// silently turn every persisted record into a miss; this test makes
// such a drift fail. Regenerate with
//
//	go test ./internal/golden -run TestCanonicalHashes -update
//
// and say why in CHANGES.md.
func TestCanonicalHashes(t *testing.T) {
	m, ok := machine.Lookup(machine.PaperMachine)
	if !ok {
		t.Fatal("paper machine not registered")
	}
	suite, err := loopgen.Build(loopgen.Options{Size: corpusSize, Seed: corpusSeed, Mach: m})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	idx := 0
	for i, sl := range suite.Loops {
		// A source holding several loops contributes consecutive
		// entries; LoopIndex selects each one.
		if i > 0 && suite.Loops[i-1].Source == sl.Source {
			idx++
		} else {
			idx = 0
		}
		name := fmt.Sprintf("%04d/%s", i, sl.Name)
		src := &wire.Request{Version: wire.Version, Machine: m.Name, Source: sl.Source, LoopIndex: idx}
		h, err := src.Hash()
		if err != nil {
			t.Fatalf("%s: source form: %v", name, err)
		}
		irReq, err := wire.NewRequest(sl.CL.Loop, "", wire.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ih, err := irReq.Hash(); err != nil || ih != h {
			t.Errorf("%s: IR-form hash %s (%v), source-form hash %s", name, ih, err, h)
		}
		got = append(got, name+" "+h)
	}
	path := filepath.Join("..", "..", "testdata", "golden", "canonical.hashes")
	if *update {
		writeLines(t, path, got)
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%s: computed %d lines, file has %d", path, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:%d:\n got %s\nwant %s", path, i+1, got[i], want[i])
		}
	}
}
