package machine

import (
	"slices"
	"testing"
)

func TestCydraTable1(t *testing.T) {
	m := Cydra()
	cases := []struct {
		op      Opcode
		kind    FUKind
		latency int
		busy    int
	}{
		{Load, MemPort, 13, 1},
		{Store, MemPort, 1, 1},
		{AAdd, AddrALU, 1, 1},
		{ASub, AddrALU, 1, 1},
		{AMul, AddrALU, 1, 1},
		{IAdd, Adder, 1, 1},
		{FAdd, Adder, 1, 1},
		{FSub, Adder, 1, 1},
		{IAnd, Adder, 1, 1},
		{IMul, Multiplier, 2, 1},
		{FMul, Multiplier, 2, 1},
		{IDiv, Divider, 17, 17},
		{IMod, Divider, 17, 17},
		{FDiv, Divider, 17, 17},
		{FSqrt, Divider, 21, 21},
		{BrTop, Branch, 2, 1},
	}
	for _, c := range cases {
		in := m.Info(c.op)
		if in.Kind != c.kind || in.Latency != c.latency || in.Busy != c.busy {
			t.Errorf("%v: got %+v, want kind=%v lat=%d busy=%d", c.op, in, c.kind, c.latency, c.busy)
		}
	}
}

func TestCydraUnitCounts(t *testing.T) {
	m := Cydra()
	want := map[FUKind]int{MemPort: 2, AddrALU: 2, Adder: 1, Multiplier: 1, Divider: 1, Branch: 1}
	for k, n := range want {
		if m.Count(k) != n {
			t.Errorf("Count(%v) = %d, want %d", k, m.Count(k), n)
		}
	}
}

func TestDividerNotPipelined(t *testing.T) {
	m := Cydra()
	if got := m.Info(FDiv); got.Busy != got.Latency {
		t.Errorf("divider should reserve its full latency; got busy=%d lat=%d", got.Busy, got.Latency)
	}
	p := mustLookup("pipediv")
	if got := p.Info(FDiv); got.Busy != 1 {
		t.Errorf("pipelined-divider variant should reserve 1 cycle; got %d", got.Busy)
	}
	if p.Info(FDiv).Latency != 17 {
		t.Errorf("pipelining must not change latency")
	}
}

func TestInfoPanicsOnNop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Info(Nop) should panic")
		}
	}()
	Cydra().Info(Nop)
}

// TestVariantsDistinct: the paper's Section 8 latency variants differ
// from its machine.
func TestVariantsDistinct(t *testing.T) {
	for _, name := range []string{"shortmem", "longops", "pipediv"} {
		if v := mustLookup(name); slices.Equal(v.info, Cydra().info) {
			t.Errorf("%s has the paper machine's execution profiles", name)
		}
	}
	if Cydra().Info(Load).Latency == mustLookup("shortmem").Info(Load).Latency {
		t.Error("shortmem should change the load latency")
	}
}

func TestOpcodeStrings(t *testing.T) {
	for o := Opcode(1); o < Opcode(NumOpcodes); o++ {
		s := o.String()
		if s == "" || s[0] == 'O' && len(s) > 6 && s[:6] == "Opcode" {
			t.Errorf("opcode %d has no mnemonic", int(o))
		}
	}
	if MemPort.String() != "MemPort" || Divider.String() != "Divider" {
		t.Error("FUKind names wrong")
	}
}
