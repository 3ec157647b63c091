package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/machine"
)

// compile schedules a loop the way lsmsd does (no codegen) and returns
// the deterministic observables.
func compile(t *testing.T, l *ir.Loop, scheduler string) (ii int, times []int, maxLive int, eff Effort) {
	t.Helper()
	c, err := core.Compile(context.Background(), l, core.Options{
		Scheduler:   core.SchedulerName(scheduler),
		SkipCodegen: true,
	})
	if err != nil {
		t.Fatalf("compile %s: %v", l.Name, err)
	}
	if !c.OK() {
		t.Fatalf("compile %s: gave up at II=%d", l.Name, c.Result.FailedII)
	}
	return c.Result.Schedule.II, c.Result.Schedule.Time, c.RR.MaxLive, EffortOf(c.Result.Stats)
}

func TestRoundTripIdentity(t *testing.T) {
	m := machine.Cydra()
	for _, l := range fixture.All(m) {
		w, err := EncodeLoop(l)
		if err != nil {
			t.Fatalf("%s: encode: %v", l.Name, err)
		}
		l2, err := w.DecodeLoop(m)
		if err != nil {
			t.Fatalf("%s: decode: %v", l.Name, err)
		}
		w2, err := EncodeLoop(l2)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", l.Name, err)
		}
		b1, _ := json.Marshal(w)
		b2, _ := json.Marshal(w2)
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: decode∘encode is not the identity:\n%s\nvs\n%s", l.Name, b1, b2)
		}
		// The derived structures must match too: the decoded loop is
		// indistinguishable from the original to the scheduler.
		if !reflect.DeepEqual(l.Deps, l2.Deps) {
			t.Errorf("%s: dependence arcs differ after round trip", l.Name)
		}
		for i := range l.Ops {
			if l.Ops[i].FU != l2.Ops[i].FU || l.Ops[i].OnRecurrence != l2.Ops[i].OnRecurrence {
				t.Errorf("%s: op %d derived fields differ after round trip", l.Name, i)
			}
		}
	}
}

func TestRoundTripRecompiles(t *testing.T) {
	m := machine.Cydra()
	for _, l := range fixture.All(m) {
		w, err := EncodeLoop(l)
		if err != nil {
			t.Fatalf("%s: encode: %v", l.Name, err)
		}
		l2, err := w.DecodeLoop(m)
		if err != nil {
			t.Fatalf("%s: decode: %v", l.Name, err)
		}
		ii1, t1, p1, e1 := compile(t, l, "slack")
		ii2, t2, p2, e2 := compile(t, l2, "slack")
		if ii1 != ii2 || p1 != p2 || e1 != e2 || !reflect.DeepEqual(t1, t2) {
			t.Errorf("%s: decoded loop compiles differently: II %d vs %d, MaxLive %d vs %d, effort %+v vs %+v",
				l.Name, ii1, ii2, p1, p2, e1, e2)
		}
	}
}

func TestHashCanonicalization(t *testing.T) {
	l := fixture.Daxpy(machine.Cydra())
	base, err := NewRequest(l, "slack", Options{})
	if err != nil {
		t.Fatal(err)
	}
	h0, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// The wall-clock deadline is excluded from the content address.
	dl := *base
	dl.Options.DeadlineMS = 5000
	if h, _ := dl.Hash(); h != h0 {
		t.Errorf("deadline changed the hash: %s vs %s", h, h0)
	}

	// Deterministic work caps are included.
	caps := *base
	caps.Options.MaxIIAttempts = 3
	if h, _ := caps.Hash(); h == h0 {
		t.Error("MaxIIAttempts did not change the hash")
	}

	// So are scheduler, machine, and degrade.
	for name, mut := range map[string]func(*Request){
		"scheduler": func(r *Request) { r.Scheduler = "cydrome" },
		"machine":   func(r *Request) { r.Machine = "shortmem" },
		"degrade":   func(r *Request) { r.Options.Degrade = true },
	} {
		r := *base
		mut(&r)
		if h, _ := r.Hash(); h == h0 {
			t.Errorf("%s did not change the hash", name)
		}
	}
}

func TestSourceAndIRFormsHashIdentically(t *testing.T) {
	src := `      subroutine triad(n, q, a, b, c)
      real a(1001), b(1001), c(1001), q
      integer n, i
      do i = 1, 1000
        a(i) = b(i) + q*c(i)
      end do
      end
`
	srcReq := &Request{
		Version:   Version,
		Machine:   "cydra",
		Scheduler: "slack",
		Source:    src,
	}
	hs, err := srcReq.Hash()
	if err != nil {
		t.Fatalf("source-form hash: %v", err)
	}
	l, err := srcReq.Lower()
	if err != nil {
		t.Fatal(err)
	}
	irReq, err := NewRequest(l, "slack", Options{})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := irReq.Hash()
	if err != nil {
		t.Fatalf("IR-form hash: %v", err)
	}
	if hs != hi {
		t.Errorf("source form hashes %s but IR form hashes %s", hs, hi)
	}
}

// TestNormalizeConcurrent: source-form Normalize recycles its token
// slice, AST, unit and lowering tables through pools, so requests
// normalized at once must hash exactly as they do one at a time. The
// memo stores nothing here, so every source runs the frontend
// (TestMemoConcurrentEviction covers the memo).
func TestNormalizeConcurrent(t *testing.T) {
	useMemo(t, newSourceMemo(0))
	irDocs, srcDocs := corpusDocs(t, 120, 1993)
	docs := append(srcDocs, irDocs...)
	want := make([]string, len(docs))
	for i, doc := range docs {
		var r Request
		if err := json.Unmarshal(doc, &r); err != nil {
			t.Fatal(err)
		}
		var err error
		if want[i], err = r.Hash(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range docs {
				i := (k + g*len(docs)/4) % len(docs)
				var r Request
				if err := json.Unmarshal(docs[i], &r); err != nil {
					t.Error(err)
					return
				}
				if got, err := r.Hash(); err != nil || got != want[i] {
					t.Errorf("doc %d: concurrent hash %s (%v), sequential %s", i, got, err, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestValidateRejectsBadEnvelopes(t *testing.T) {
	l := fixture.Daxpy(machine.Cydra())
	good, err := NewRequest(l, "slack", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*Request){
		"version": func(r *Request) { r.Version = "lsms-wire/0" },
		"machine": func(r *Request) { r.Machine = "pdp11" },
		"both":    func(r *Request) { r.Source = "x" },
		"neither": func(r *Request) { r.Loop = nil },
		"v1 with inline spec": func(r *Request) {
			r.Version = VersionV1
			r.MachineSpec = machine.FamilySpec("cydra", machine.CydraLatencies())
		},
		"spec name mismatch": func(r *Request) {
			r.MachineSpec = machine.FamilySpec("other", machine.CydraLatencies())
		},
		"invalid inline spec": func(r *Request) {
			r.Machine = ""
			r.MachineSpec = &machine.Spec{Name: "broken"}
		},
	} {
		r := *good
		mut(&r)
		if _, _, err := r.Normalize(); err == nil {
			t.Errorf("%s: bad envelope accepted", name)
		}
	}
}

func TestDecodeRejectsBadDocuments(t *testing.T) {
	m := machine.Cydra()
	l := fixture.Daxpy(m)
	base, err := EncodeLoop(l)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *Loop {
		b, _ := json.Marshal(base)
		var c Loop
		_ = json.Unmarshal(b, &c)
		return &c
	}
	for name, mut := range map[string]func(*Loop){
		"opcode":   func(w *Loop) { w.Ops[0].Opcode = "frobnicate" },
		"file":     func(w *Loop) { w.Values[0].File = "XR" },
		"type":     func(w *Loop) { w.Values[0].Type = "complex" },
		"depkind":  func(w *Loop) { w.Deps[0].Kind = "flow" },
		"arg":      func(w *Loop) { w.Ops[0].Args[0].Val = 99 },
		"result":   func(w *Loop) { w.Ops[0].Result = 99 },
		"deprange": func(w *Loop) { w.Deps[0].To = 99 },
	} {
		w := clone()
		mut(w)
		if _, err := w.DecodeLoop(m); err == nil {
			t.Errorf("%s: bad document decoded", name)
		}
	}
}

// goldenHash pins the content address of the golden fixture; it can
// only change together with the wire version.
const goldenHash = "sha256:6c63adf6c6a63a24d3bfc5222cb4b63e9d2625f28fd23d31865a6caf5b97759a"

func TestGoldenFixture(t *testing.T) {
	b, err := os.ReadFile("testdata/daxpy.wire.json")
	if err != nil {
		t.Fatalf("golden fixture missing: %v", err)
	}
	var r Request
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("golden fixture does not parse: %v", err)
	}
	canon, err := r.Canonical()
	if err != nil {
		t.Fatalf("golden fixture does not canonicalize: %v", err)
	}
	if got := bytes.TrimRight(b, "\n"); !bytes.Equal(canon, got) {
		t.Errorf("golden fixture is not in canonical form:\nfile: %s\ncanonical: %s", got, canon)
	}
	h, err := r.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != goldenHash {
		t.Errorf("golden hash drifted: got %s, want %s (a deliberate format change must bump wire.Version)", h, goldenHash)
	}
	// The pinned document must still decode to the fixture loop and
	// compile identically to it.
	l, err := r.Lower()
	if err != nil {
		t.Fatal(err)
	}
	ii1, t1, p1, e1 := compile(t, l, "slack")
	ii2, t2, p2, e2 := compile(t, fixture.Daxpy(machine.Cydra()), "slack")
	if ii1 != ii2 || p1 != p2 || e1 != e2 || !reflect.DeepEqual(t1, t2) {
		t.Errorf("golden loop compiles differently from fixture.Daxpy: II %d vs %d", ii1, ii2)
	}
}

// TestV1EnvelopeCompat: a version-1 envelope (no machine_spec — the
// formats are otherwise identical) still decodes, and canonicalizes to
// the same bytes — and therefore the same content address — as its v2
// form, so clients straddling the version bump share cache entries.
func TestV1EnvelopeCompat(t *testing.T) {
	b, err := os.ReadFile("testdata/daxpy.wire.json")
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Replace(b, []byte(Version), []byte(VersionV1), 1)
	if bytes.Equal(v1, b) {
		t.Fatal("version replacement did not take")
	}
	var r Request
	if err := json.Unmarshal(v1, &r); err != nil {
		t.Fatal(err)
	}
	n, _, err := r.Normalize()
	if err != nil {
		t.Fatalf("v1 envelope rejected: %v", err)
	}
	if n.Version != Version {
		t.Errorf("Normalize left version %q, want %q", n.Version, Version)
	}
	h, err := r.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != goldenHash {
		t.Errorf("v1 form hashes %s, v2 form %s; they must share a cache entry", h, goldenHash)
	}
}

// TestRetiredOptionKeyIgnored: testdata/daxpy.retired-option.wire.json
// is the golden fixture with the fast-path debug key an earlier wire
// revision accepted in "options"; the other inputs set, one each, the
// scheduler heuristics earlier revisions also carried (the II step,
// the ejection budget, its floor, the starting II). Each key is now an
// ordinary unknown key, so every request decodes — through the
// request decoder and through encoding/json — canonicalizes and hashes
// exactly like the golden fixture without it.
func TestRetiredOptionKeyIgnored(t *testing.T) {
	golden, err := os.ReadFile("testdata/daxpy.wire.json")
	if err != nil {
		t.Fatal(err)
	}
	retired, err := os.ReadFile("testdata/daxpy.retired-option.wire.json")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(golden, retired) {
		t.Fatal("fixtures are identical; the retired key is missing")
	}
	inputs := map[string][]byte{"no_fast_paths": retired}
	for _, opt := range []string{
		`"increment_by_one":true`, `"eject_budget_per_op":1`, `"min_eject_budget":1`, `"start_ii":9`,
	} {
		b := bytes.Replace(golden, []byte(`"options":{}`), []byte(`"options":{`+opt+`}`), 1)
		if bytes.Equal(b, golden) {
			t.Fatalf("%s: the golden fixture has no empty options to extend", opt)
		}
		inputs[opt] = b
	}
	var want Request
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	for name, body := range inputs {
		var got Request
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: request does not decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded requests differ:\n got %+v\nwant %+v", name, got, want)
		}
		var scr Scratch
		fast, err := scr.DecodeRequest(body)
		if err != nil {
			t.Fatalf("%s: request decoder refused it: %v", name, err)
		}
		for _, r := range []*Request{&got, fast} {
			canon, err := r.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canon, bytes.TrimRight(golden, "\n")) {
				t.Errorf("%s: canonical form differs from the golden fixture:\n%s", name, canon)
			}
			if h, err := r.Hash(); err != nil || h != goldenHash {
				t.Errorf("%s: hash = %s (%v), want %s", name, h, err, goldenHash)
			}
		}
	}
}

// goldenSpecHash pins the content address of the inline-spec fixture:
// a request carrying its own declarative target (an unregistered
// single-memory-port Cydra derivative).
const goldenSpecHash = "sha256:4818bc096802e7519eabc2c0bd6b214f0190d6e323be716aca7d8b0618a9322a"

func TestGoldenSpecFixture(t *testing.T) {
	b, err := os.ReadFile("testdata/daxpy.spec.wire.json")
	if err != nil {
		t.Fatalf("golden fixture missing: %v", err)
	}
	var r Request
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("golden fixture does not parse: %v", err)
	}
	if r.MachineSpec == nil {
		t.Fatal("fixture carries no inline machine spec")
	}
	canon, err := r.Canonical()
	if err != nil {
		t.Fatalf("golden fixture does not canonicalize: %v", err)
	}
	if got := bytes.TrimRight(b, "\n"); !bytes.Equal(canon, got) {
		t.Errorf("golden fixture is not in canonical form:\nfile: %s\ncanonical: %s", got, canon)
	}
	h, err := r.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != goldenSpecHash {
		t.Errorf("golden spec hash drifted: got %s, want %s (a deliberate format change must bump wire.Version)", h, goldenSpecHash)
	}
	if h == goldenHash {
		t.Error("inline-spec request shares a content address with the registered-cydra request")
	}
	// The embedded target must build and the loop compile on it; one
	// memory port doubles ResMII for daxpy (2 mem ops / 1 port ≥ 2).
	l, err := r.Lower()
	if err != nil {
		t.Fatal(err)
	}
	if l.Mach.Name != "daxpy-box" || l.Mach.Count(machine.MemPort) != 1 {
		t.Fatalf("decoded machine %s with %d mem ports, want daxpy-box with 1", l.Mach.Name, l.Mach.Count(machine.MemPort))
	}
	ii, _, _, _ := compile(t, l, "slack")
	refII, _, _, _ := compile(t, fixture.Daxpy(machine.Cydra()), "slack")
	if ii <= refII {
		t.Errorf("halving memory ports did not raise daxpy's II (%d vs cydra's %d)", ii, refII)
	}
}

// TestNewRequestEmbedsUnregisteredSpec: NewRequest embeds the spec
// exactly when the loop's machine is not registered under its name —
// registered targets travel by name alone.
func TestNewRequestEmbedsUnregisteredSpec(t *testing.T) {
	reg, err := NewRequest(fixture.Daxpy(machine.Cydra()), "slack", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reg.MachineSpec != nil {
		t.Error("registered machine traveled with an inline spec")
	}
	spec := machine.FamilySpec("unregistered-box", machine.CydraLatencies())
	custom, err := NewRequest(fixture.Daxpy(spec.MustBuild()), "slack", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if custom.MachineSpec == nil {
		t.Fatal("unregistered machine traveled without its spec")
	}
	if custom.Machine != "unregistered-box" || custom.MachineSpec.Name != custom.Machine {
		t.Errorf("name mismatch: machine %q, spec %q", custom.Machine, custom.MachineSpec.Name)
	}
	if _, err := custom.Lower(); err != nil {
		t.Fatalf("inline-spec request does not lower: %v", err)
	}
}

// TestDecodeUnsupportedOp: a loop whose ops the target cannot execute
// fails the decode boundary with the typed verdict servers map to 422.
func TestDecodeUnsupportedOp(t *testing.T) {
	m := machine.Cydra()
	w, err := EncodeLoop(fixture.Daxpy(m))
	if err != nil {
		t.Fatal(err)
	}
	noMul := (&machine.Spec{
		Name:  "no-mul",
		Units: []machine.UnitSpec{{Name: "ALU", Count: 4}, {Name: "Mem", Count: 2}},
		Profiles: []machine.ProfileSpec{
			{Ops: []string{"load", "store"}, Unit: "Mem", Latency: 2},
			{Ops: []string{"fadd", "aadd", "brtop"}, Unit: "ALU", Latency: 1},
		},
	}).MustBuild()
	_, err = w.DecodeLoop(noMul)
	var ue *machine.UnsupportedOpError
	if !errors.As(err, &ue) {
		t.Fatalf("decode error %v is not an UnsupportedOpError", err)
	}
	if ue.Machine != "no-mul" || ue.Op != machine.FMul {
		t.Errorf("verdict %+v, want no-mul/fmul", ue)
	}
}
