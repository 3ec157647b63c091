package frontend_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/wire"
)

// TestRealLiteralSpellings: a real literal's content address depends on
// its value, not its spelling. A D exponent in either case reads as E,
// and a literal that starts with a dot takes an exponent too. The
// lexer once rewrote only a lower-case d, before lower-casing, and
// scanned no exponent after a leading dot, so 1.5D3 and .5e3 were
// rejected.
func TestRealLiteralSpellings(t *testing.T) {
	hash := func(expr string) string {
		t.Helper()
		src := "      subroutine s(n, a, b)\n      real a(1001), b(1001)\n      integer n, i\n" +
			"      do i = 1, n\n        b(i) = " + expr + "\n      end do\n      end\n"
		h, err := (&wire.Request{Version: wire.Version, Machine: machine.PaperMachine, Source: src}).Hash()
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		return h
	}
	for _, c := range []struct{ expr, same string }{
		{"a(i) + 1.5D3", "a(i) + 1.5e3"},
		{"a(i) + 1.5d3", "a(i) + 1.5E3"},
		{"a(i) + 1D3", "a(i) + 1000.0"},
		{"a(i) + 1.5D-3", "a(i) + 1.5e-3"},
		{"a(i) + .5e3", "a(i) + 500.0"},
		{"a(i) + .5D+3", "a(i) + 500.0"},
	} {
		if got, want := hash(c.expr), hash(c.same); got != want {
			t.Errorf("hash of %q = %s, want that of %q, %s", c.expr, got, c.same, want)
		}
	}
	if hash("a(i) + 1.5e3") == hash("a(i) + 1.5e2") {
		t.Error("two different constants hash alike: the test compares nothing")
	}
}
