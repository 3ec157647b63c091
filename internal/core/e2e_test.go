package core

import (
	"context"
	"testing"

	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/schedcheck"
)

// e2eCase is one mini-FORTRAN program compiled, scheduled, code
// generated, and executed on the VLIW simulator against the interpreter.
type e2eCase struct {
	name    string
	src     string
	binding frontend.Binding
}

func e2eCases() []e2eCase {
	fillRamp := func(array string, idx int) ir.Scalar { return ir.FloatS(float64(idx) + 0.5) }
	return []e2eCase{
		{
			name: "paper-sample",
			src: `
      subroutine sample(n, x, y)
      real x(200), y(200)
      integer n, i
      do i = 3, n
        x(i) = x(i-1) + y(i-2)
        y(i) = y(i-1) + x(i-2)
      end do
      end
`,
			binding: frontend.Binding{Ints: map[string]int64{"n": 40}, Fill: fillRamp},
		},
		{
			name: "lll1-hydro",
			src: `
      subroutine lll1(n, q, r, t, x, y, z)
      real x(1100), y(1100), z(1100)
      real q, r, t
      integer n, k
      do k = 1, n
        x(k) = q + y(k)*(r*z(k+10) + t*z(k+11))
      end do
      end
`,
			binding: frontend.Binding{
				Ints:  map[string]int64{"n": 60},
				Reals: map[string]float64{"q": 1.5, "r": 0.25, "t": 2.0},
				Fill:  fillRamp,
			},
		},
		{
			name: "lll5-tridiag",
			src: `
      subroutine lll5(n, x, y, z)
      real x(300), y(300), z(300)
      integer n, i
      do i = 2, n
        x(i) = z(i)*(y(i) - x(i-1))
      end do
      end
`,
			binding: frontend.Binding{Ints: map[string]int64{"n": 50}, Fill: fillRamp},
		},
		{
			name: "inner-product",
			src: `
      subroutine dot(n, q, x, y)
      real x(300), y(300), q
      integer n, i
      do i = 1, n
        q = q + x(i)*y(i)
      end do
      end
`,
			binding: frontend.Binding{
				Ints:  map[string]int64{"n": 64},
				Reals: map[string]float64{"q": 0.0},
				Fill:  fillRamp,
			},
		},
		{
			name: "conditional-clip",
			src: `
      subroutine clip(n, top, x, y)
      real x(300), y(300), top
      integer n, i
      do i = 1, n
        if (x(i) .gt. top) then
          y(i) = top
        else
          y(i) = x(i)
        end if
      end do
      end
`,
			binding: frontend.Binding{
				Ints:  map[string]int64{"n": 48},
				Reals: map[string]float64{"top": 20.0},
				Fill:  fillRamp,
			},
		},
		{
			name: "divide-sqrt",
			src: `
      subroutine dsq(n, x, y, z)
      real x(200), y(200), z(200)
      integer n, i
      do i = 1, n
        z(i) = sqrt(abs(x(i))) + x(i)/y(i)
      end do
      end
`,
			binding: frontend.Binding{Ints: map[string]int64{"n": 24}, Fill: fillRamp},
		},
		{
			name: "stencil-forwarding",
			src: `
      subroutine sten(n, a, b)
      real a(300), b(300)
      integer n, i
      do i = 2, n
        b(i) = 0.25*(a(i-1) + 2.0*a(i) + a(i+1))
      end do
      end
`,
			binding: frontend.Binding{Ints: map[string]int64{"n": 56}, Fill: fillRamp},
		},
		{
			name: "first-difference",
			src: `
      subroutine diff(n, x, y)
      real x(300), y(300)
      integer n, i
      do i = 1, n
        x(i) = y(i+1) - y(i)
      end do
      end
`,
			binding: frontend.Binding{Ints: map[string]int64{"n": 50}, Fill: fillRamp},
		},
		{
			name: "state-recurrence",
			src: `
      subroutine state(n, s, t, x)
      real x(300), s, t
      integer n, i
      do i = 1, n
        s = 0.5*s + t*x(i)
        x(i) = s
      end do
      end
`,
			binding: frontend.Binding{
				Ints:  map[string]int64{"n": 40},
				Reals: map[string]float64{"s": 1.0, "t": 0.75},
				Fill:  fillRamp,
			},
		},
		{
			name: "elseif-triage",
			src: `
      subroutine tri(n, lo2, hi2, x, y)
      integer n, i
      real x(300), y(300), lo2, hi2
      do i = 1, n
        if (x(i) .lt. lo2) then
          y(i) = lo2
        else if (x(i) .gt. hi2) then
          y(i) = hi2
        else
          y(i) = x(i)
        end if
      end do
      end
`,
			binding: frontend.Binding{
				Ints:  map[string]int64{"n": 40},
				Reals: map[string]float64{"lo2": 8.0, "hi2": 30.0},
				Fill:  fillRamp,
			},
		},
		{
			name: "gather-indirect",
			src: `
      subroutine gat(n, ind, a, b)
      integer n, i, ind(100)
      real a(100), b(100)
      do i = 1, n
        b(i) = 2.0*a(ind(i))
      end do
      end
`,
			binding: frontend.Binding{
				Ints: map[string]int64{"n": 30},
				Fill: func(array string, idx int) ir.Scalar {
					if array == "ind" {
						return ir.IntS(int64((idx*7)%100 + 1))
					}
					return ir.FloatS(float64(idx))
				},
			},
		},
	}
}

// The repository's capstone test: every frontend-compiled loop, under
// every scheduler that succeeds, executes identically on the generated
// rotating-register kernel and the sequential interpreter.
func TestFrontendDifferential(t *testing.T) {
	m := machine.Cydra()
	for _, tc := range e2eCases() {
		t.Run(tc.name, func(t *testing.T) {
			_, loops, err := frontend.Compile(tc.src, m)
			if err != nil {
				t.Fatal(err)
			}
			if len(loops) != 1 || loops[0].Ineligible != nil {
				t.Fatalf("compile: %d loops, first ineligible: %v", len(loops), loops[0].Ineligible)
			}
			cl := loops[0]
			env, _, trips, err := cl.BuildEnv(tc.binding)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range Schedulers() {
				c, err := Compile(context.Background(), cl.Loop, Options{Scheduler: name})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !c.OK() {
					if name == SchedList || name == SchedCydrome {
						continue
					}
					t.Fatalf("%s: gave up", name)
				}
				if vs := schedcheck.Check(cl.Loop, c.Result.Schedule); vs != nil {
					t.Fatalf("illegal schedule: %v", vs)
				}
				if err := VerifyExecution(c, env, trips); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		})
	}
}

// Frontend loops must reach their MII with the slack scheduler — these
// are exactly the simple scientific kernels the paper reports 96%+
// optimality on.
func TestFrontendLoopsReachMII(t *testing.T) {
	m := machine.Cydra()
	for _, tc := range e2eCases() {
		_, loops, err := frontend.Compile(tc.src, m)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(context.Background(), loops[0].Loop, Options{SkipCodegen: true})
		if err != nil {
			t.Fatal(err)
		}
		if !c.OK() || c.Result.Schedule.II != c.Result.Bounds.MII {
			t.Errorf("%s: II %v vs MII %d", tc.name, c.Result.II(), c.Result.Bounds.MII)
		}
	}
}
