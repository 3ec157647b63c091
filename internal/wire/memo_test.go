package wire

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/fixture"
	"repro/internal/machine"
)

// useMemo makes m the memo Normalize consults until the test ends. A
// memo of budget 0 stores nothing, so every source-form Normalize runs
// the frontend.
func useMemo(tb testing.TB, m *sourceMemo) *sourceMemo {
	old := sources
	sources = m
	tb.Cleanup(func() { sources = old })
	return m
}

// checkMemo holds the memo's bookkeeping to its entries: the queue
// lists exactly the stored keys, and used is their summed size, within
// the budget.
func checkMemo(t *testing.T, m *sourceMemo) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	live, used := m.fifo[m.head:], 0
	if len(live) != len(m.docs) {
		t.Fatalf("queue holds %d keys, map %d entries", len(live), len(m.docs))
	}
	for _, k := range live {
		e, ok := m.docs[k]
		if !ok {
			t.Fatalf("queued key %x not stored", k.sum[:4])
		}
		used += e.size
	}
	if used != m.used || used > m.budget {
		t.Fatalf("entries hold %d bytes, memo counts %d, budget %d", used, m.used, m.budget)
	}
}

// sameDoc reports whether two normalized source-form requests share
// one string of canonical loop bytes: the memo's, since every lowering
// by the frontend encodes a string of its own.
func sameDoc(a, b *Request) bool {
	return a.doc.bytes != "" && unsafe.StringData(a.doc.bytes) == unsafe.StringData(b.doc.bytes)
}

func decodeDocs(tb testing.TB, docs [][]byte) []*Request {
	tb.Helper()
	reqs := make([]*Request, len(docs))
	for i, doc := range docs {
		reqs[i] = new(Request)
		if err := json.Unmarshal(doc, reqs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return reqs
}

// TestMemoColdWarmIdentical: over the seed-1993 corpus, a source that
// the frontend lowers afresh and the same source served from the memo
// give the same canonical bytes, content hash and IR, and the warm
// Normalize runs no frontend: it returns the very bytes the first warm
// one stored.
func TestMemoColdWarmIdentical(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 8
	}
	_, srcDocs := corpusDocs(t, 1525, 1993)
	cold, warm := newSourceMemo(0), newSourceMemo(MemoBudget)
	useMemo(t, cold)
	for i := 0; i < len(srcDocs); i += step {
		var r Request
		if err := json.Unmarshal(srcDocs[i], &r); err != nil {
			t.Fatal(err)
		}
		sources = cold
		cn, _, err := r.Normalize()
		if err != nil {
			t.Fatalf("doc %d: cold: %v", i, err)
		}
		cl, err := cn.Lower()
		if err != nil {
			t.Fatalf("doc %d: cold lower: %v", i, err)
		}
		sources = warm
		first, _, err := r.Normalize()
		if err != nil {
			t.Fatalf("doc %d: first warm: %v", i, err)
		}
		wn, _, err := r.Normalize()
		if err != nil {
			t.Fatalf("doc %d: warm: %v", i, err)
		}
		wl, err := wn.Lower()
		if err != nil {
			t.Fatalf("doc %d: warm lower: %v", i, err)
		}
		if sameDoc(cn, first) || !sameDoc(wn, first) {
			t.Fatalf("doc %d (%s): the warm Normalize lowered the source again", i, cn.LoopName())
		}
		cb, err := cn.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		wb, err := wn.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if string(cb) != string(wb) {
			t.Fatalf("doc %d: canonical bytes differ:\ncold: %s\nwarm: %s", i, cb, wb)
		}
		ch, _ := cn.Hash()
		wh, _ := wn.Hash()
		if ch != wh {
			t.Fatalf("doc %d: hash %s cold, %s warm", i, ch, wh)
		}
		if cs, ws := cl.String(), wl.String(); cs != ws {
			t.Fatalf("doc %d: IR differs:\ncold:\n%s\nwarm:\n%s", i, cs, ws)
		}
		if wn.LoopName() != cl.Name || cn.LoopName() != cl.Name {
			t.Fatalf("doc %d: loop names %q cold, %q warm, %q lowered", i, cn.LoopName(), wn.LoopName(), cl.Name)
		}
	}
	checkMemo(t, warm)
}

// TestLoopDocRoundTrip: canonical bytes parse back into the document
// they were encoded from. Names that need no escaping come back as
// substrings of the bytes; escaped ones, names with HTML characters,
// separators or quotes, come back as copies with the same text.
func TestLoopDocRoundTrip(t *testing.T) {
	for name, edit := range map[string]func(*Loop){
		"plain": func(*Loop) {},
		"escaped": func(w *Loop) {
			w.Name = `<loop> "one" & \ two` + "\u2028\t"
			w.Values[0].Name = "x\ny"
			w.Values[1].Name = "é\u2029"
		},
	} {
		w, err := EncodeLoop(fixture.Daxpy(machine.Cydra()))
		if err != nil {
			t.Fatal(err)
		}
		edit(w)
		d, err := encodeDoc(w)
		if err != nil {
			t.Fatal(err)
		}
		shared := func(s string) bool {
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			base := uintptr(unsafe.Pointer(unsafe.StringData(d.bytes)))
			return len(s) > 0 && p >= base && p < base+uintptr(len(d.bytes))
		}
		if d.name != w.Name {
			t.Errorf("%s: name %q, want %q", name, d.name, w.Name)
		}
		var s Scratch
		got, err := s.decodeDoc(d.bytes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s: parsed %+v\nwant %+v", name, got, w)
		}
		for i, v := range got.Values {
			if shared(v.Name) != strings.Contains(d.bytes, `"name":"`+v.Name+`"`) {
				t.Errorf("%s: value %d name %q shares the bytes: %v", name, i, v.Name, shared(v.Name))
			}
		}
		if shared(got.Name) != (name == "plain") {
			t.Errorf("%s: parsed loop name %q shares the bytes: %v", name, got.Name, shared(got.Name))
		}
	}
}

// TestMemoHoldsCorpus: each 1,525-loop corpus, seed 1993 and the
// held-out seed 2718, fits the memo whole: after every source is
// lowered once, every one is still stored and none was evicted.
func TestMemoHoldsCorpus(t *testing.T) {
	for _, seed := range []int64{1993, 2718} {
		_, srcDocs := corpusDocs(t, 1525, seed)
		m := useMemo(t, newSourceMemo(MemoBudget))
		for _, r := range decodeDocs(t, srcDocs) {
			if _, _, err := r.Normalize(); err != nil {
				t.Fatal(err)
			}
		}
		checkMemo(t, m)
		t.Logf("seed %d: %d entries, %d B counted, %d B per entry", seed, len(m.docs), m.used, m.used/max(len(m.docs), 1))
		if len(m.docs) != len(srcDocs) || m.head != 0 {
			t.Errorf("seed %d: memo holds %d of %d sources after evicting %d", seed, len(m.docs), len(srcDocs), m.head)
		}
	}
}

// TestMemoConcurrentEviction: goroutines normalizing overlapping
// sources through a memo far smaller than their documents, so entries
// are evicted while other goroutines read them, get the hashes a cold
// lowering gives (run it under -race).
func TestMemoConcurrentEviction(t *testing.T) {
	_, srcDocs := corpusDocs(t, 120, 1993)
	reqs := decodeDocs(t, srcDocs)
	useMemo(t, newSourceMemo(0))
	want := make([]string, len(reqs))
	for i, r := range reqs {
		var err error
		if want[i], err = r.Hash(); err != nil {
			t.Fatal(err)
		}
	}
	m := useMemo(t, newSourceMemo(64<<10))
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				for k := range len(reqs) / 2 {
					i := (k + g*len(reqs)/8 + round) % len(reqs)
					n, _, err := reqs[i].Normalize()
					if err != nil {
						t.Error(err)
						return
					}
					l, err := n.Lower()
					if err != nil {
						t.Error(err)
						return
					}
					if got, err := n.Hash(); err != nil || got != want[i] {
						t.Errorf("doc %d: hash %s (%v), cold %s", i, got, err, want[i])
					}
					if l.Name != n.LoopName() {
						t.Errorf("doc %d: loop %q, document %q", i, l.Name, n.LoopName())
					}
				}
			}
		}()
	}
	wg.Wait()
	checkMemo(t, m)
	if len(m.docs) == 0 {
		t.Fatal("memo empty after the run")
	}
}

// TestMemoRetainedHeapFlat: the memo's retained heap stops growing at
// its budget. Four rounds of two copies of the corpus, each source made
// distinct by a comment line, store several times what the budget
// holds (one copy fits it whole); the heap after the last round is
// where it was after the first.
func TestMemoRetainedHeapFlat(t *testing.T) {
	_, srcDocs := corpusDocs(t, 1525, 1993)
	base := decodeDocs(t, srcDocs)
	rounds := make([][]Request, 4)
	for k := range rounds {
		rounds[k] = make([]Request, 2*len(base))
		for i := range rounds[k] {
			r := base[i%len(base)]
			rounds[k][i] = *r
			rounds[k][i].Source = fmt.Sprintf("c round %d copy %d\n%s", k, i/len(base), r.Source)
		}
	}
	m := useMemo(t, newSourceMemo(MemoBudget))
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC() // twice: the first only moves the pools to their victim caches
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	fill := func(k int) {
		for i := range rounds[k] {
			if _, _, err := rounds[k][i].Normalize(); err != nil {
				t.Fatal(err)
			}
		}
	}
	empty := heap()
	fill(0)
	full := heap()
	if m.used < MemoBudget*9/10 {
		t.Fatalf("one round retains %d bytes; the test needs it to fill the %d-byte budget", m.used, MemoBudget)
	}
	for k := 1; k < len(rounds); k++ {
		fill(k)
	}
	after := heap()
	checkMemo(t, m)
	t.Logf("heap: %d B empty, %d B after one round, %d B after four; memo counts %d B in %d entries",
		empty, full, after, m.used, len(m.docs))
	if grown := int64(full) - int64(empty); grown > 2*MemoBudget {
		t.Errorf("a full memo retains %d B of heap; it counts %d B", grown, m.used)
	}
	if grown := int64(after) - int64(full); grown > MemoBudget/8 {
		t.Errorf("retained heap grew %d B past a full memo", grown)
	}
}

// TestMemoReRegisteredTarget: a target replaced under its name is a new
// key, so its sources are lowered afresh for it. The replacement's
// store latency differs, which changes the memory arcs in the document.
func TestMemoReRegisteredTarget(t *testing.T) {
	m := useMemo(t, newSourceMemo(MemoBudget))
	spec := *machine.Cydra().Spec()
	spec.Name = "memo-reregistered"
	first := spec.MustBuild()
	machine.Register(first)
	r := &Request{Version: Version, Machine: spec.Name, Source: `      subroutine prefix(n, x)
      real x(1001)
      integer n, i
      do i = 2, n
        x(i) = x(i-1) + x(i)
      end do
      end`}
	n1, _, err := r.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	l1, err := n1.Lower()
	if err != nil {
		t.Fatal(err)
	}
	if l1.Mach != first {
		t.Fatal("first lowering is not for the registered target")
	}
	spec.Profiles = slices.Clone(spec.Profiles)
	for i, p := range spec.Profiles {
		if slices.Contains(p.Ops, machine.Store.String()) {
			spec.Profiles[i].Latency++
		}
	}
	second := spec.MustBuild()
	machine.Register(second)
	n2, _, err := r.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	l2, err := n2.Lower()
	if err != nil {
		t.Fatal(err)
	}
	if sameDoc(n2, n1) || l2.Mach != second {
		t.Fatal("the replaced target was served the old target's lowering")
	}
	useMemo(t, newSourceMemo(0))
	cold, _, err := r.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := n1.Hash()
	h2, _ := n2.Hash()
	hc, _ := cold.Hash()
	if h2 != hc || h2 == h1 {
		t.Errorf("hashes: old target %s, replaced %s, cold %s; want replaced = cold ≠ old", h1, h2, hc)
	}
	if len(m.docs) != 2 {
		t.Errorf("memo holds %d documents, want one per target", len(m.docs))
	}
}

// TestMemoSkipsInlineSpecsAndFailures: an inline-spec request and every
// failing source lower afresh each time, with the same verdict, and
// leave nothing in the memo.
func TestMemoSkipsInlineSpecsAndFailures(t *testing.T) {
	m := useMemo(t, newSourceMemo(MemoBudget))
	daxpy, err := os.ReadFile("../../testdata/loops/daxpy.f")
	if err != nil {
		t.Fatal(err)
	}
	noMul := &machine.Spec{
		Name:  "memo-no-mul",
		Units: []machine.UnitSpec{{Name: "ALU", Count: 4}, {Name: "Mem", Count: 2}},
		Profiles: []machine.ProfileSpec{
			{Ops: []string{"load", "store"}, Unit: "Mem", Latency: 2},
			{Ops: []string{"fadd", "aadd", "brtop"}, Unit: "ALU", Latency: 1},
		},
	}
	machine.Register(noMul.MustBuild())
	inline := *machine.Cydra().Spec()
	inline.Name = "memo-inline"
	cases := map[string]*Request{
		"inline spec": {Version: Version, Machine: inline.Name, MachineSpec: &inline, Source: string(daxpy)},
		"parse error": {Version: Version, Machine: machine.PaperMachine, Source: "      subroutine (\n"},
		"loop_index":  {Version: Version, Machine: machine.PaperMachine, Source: string(daxpy), LoopIndex: 3},
		"ineligible": {Version: Version, Machine: machine.PaperMachine, Source: `      subroutine short(x)
      real x(10)
      integer i
      do i = 1, 3
        x(i) = x(i) + 1.0
      end do
      end`},
		"unsupported op": {Version: Version, Machine: noMul.Name, Source: string(daxpy)},
	}
	for name, r := range cases {
		_, _, err1 := r.Normalize()
		_, _, err2 := r.Normalize()
		if (err1 == nil) != (name == "inline spec") {
			t.Errorf("%s: Normalize = %v", name, err1)
		}
		if fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Errorf("%s: verdict changed on the second Normalize: %v, then %v", name, err1, err2)
		}
		if name == "unsupported op" {
			if err1 == nil || !strings.Contains(err1.Error(), "fmul") {
				t.Errorf("%s: Normalize = %v, want the unsupported fmul", name, err1)
			}
		}
	}
	if len(m.docs) != 0 || m.used != 0 {
		t.Errorf("memo holds %d documents (%d B), want none", len(m.docs), m.used)
	}
}
