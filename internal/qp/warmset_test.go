package qp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/edsec/edattack/internal/mat"
	"github.com/edsec/edattack/internal/telemetry"
)

// buildWarmQP is a strictly convex QP whose optimum pins two of the three
// user inequality rows: min Σ(xᵢ-tᵢ)² with rows x₀+x₁ ≤ 1, x₁+x₂ ≤ 1,
// x₀-x₂ ≤ 10 and targets pushing into the first two.
func buildWarmQP() *Problem {
	p := NewProblem(3)
	for j, target := range []float64{2, 2, 2} {
		_ = p.SetQuadCoeff(j, j, 2)
		_ = p.SetLinCoeff(j, -2*target)
	}
	_, _ = p.AddInequality([]float64{1, 1, 0}, 1)
	_, _ = p.AddInequality([]float64{0, 1, 1}, 1)
	_, _ = p.AddInequality([]float64{1, 0, -1}, 10)
	return p
}

// warmOf is the warm state a solution leaves for the next solve.
func warmOf(sol *Solution) *WarmStart {
	return &WarmStart{X: sol.X, Working: sol.Working}
}

// solveCounted solves with a fresh registry and returns the warm-start and
// feasibility-LP counts alongside the solution.
func solveCounted(t *testing.T, p *Problem, o Options) (sol *Solution, warm, lps int64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	o.Metrics = reg
	sol, err := SolveWith(p, o)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return sol, reg.Counter("qp_warm_starts_total").Value(), reg.Counter("qp_feasibility_lp_total").Value()
}

// The solver reports its final working set as row keys, and starting from
// that state reproduces the same optimum without the feasibility LP and in
// no more iterations — the active-set analogue of the lp package's warm
// basis.
func TestWarmSetRoundTrip(t *testing.T) {
	p := buildWarmQP()
	cold, err := Solve(p)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if len(cold.Working) == 0 {
		t.Fatal("optimum pins user rows but the working set is empty")
	}
	for _, k := range cold.Working {
		if k&3 != 0 || k>>2 < 0 || k>>2 >= 3 {
			t.Fatalf("working key %d is not a user row of this problem", k)
		}
	}
	warm, warmStarts, lps := solveCounted(t, p, Options{Warm: warmOf(cold)})
	if warmStarts != 1 || lps != 0 {
		t.Fatalf("warm solve: %d warm starts, %d feasibility LPs; want 1 and 0", warmStarts, lps)
	}
	if math.Abs(warm.Objective-cold.Objective) > tol {
		t.Fatalf("warm objective %v, cold %v", warm.Objective, cold.Objective)
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm solve took %d iterations, cold took %d", warm.Iterations, cold.Iterations)
	}
}

// A stale warm state — keys naming no or inactive rows, a point of the wrong
// size, an infeasible or NaN point — must not change the answer: a feasible
// point only moves the start, and anything else degrades to the cold path.
func TestWarmSetIgnoresStaleHints(t *testing.T) {
	p := buildWarmQP()
	cold, err := Solve(p)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	feasible := []float64{0, 0, 0}
	for _, c := range []struct {
		warm   *WarmStart
		isWarm bool
	}{
		{&WarmStart{X: feasible, Working: []int64{-4, 99 << 2, 7}}, true},
		{&WarmStart{X: feasible, Working: []int64{2 << 2}}, true},
		{&WarmStart{X: feasible, Working: []int64{8, 4, 0, 0, 4, 8}}, true},
		{&WarmStart{X: []float64{0, 0}, Working: cold.Working}, false},
		{&WarmStart{X: []float64{5, 5, 5}, Working: cold.Working}, false},
		{&WarmStart{X: []float64{math.NaN(), 0, 0}, Working: cold.Working}, false},
	} {
		warm, warmStarts, lps := solveCounted(t, p, Options{Warm: c.warm})
		if got := warmStarts == 1 && lps == 0; got != c.isWarm {
			t.Fatalf("warm state %+v: %d warm starts, %d feasibility LPs", *c.warm, warmStarts, lps)
		}
		if math.Abs(warm.Objective-cold.Objective) > tol {
			t.Fatalf("warm state %+v changed objective: %v vs %v", *c.warm, warm.Objective, cold.Objective)
		}
		for j := range cold.X {
			if math.Abs(warm.X[j]-cold.X[j]) > 1e-5 {
				t.Fatalf("warm state %+v changed x[%d]: %v vs %v", *c.warm, j, warm.X[j], cold.X[j])
			}
		}
	}
}

// Random strictly convex QPs: the warm state captured from a solve must
// reproduce the fresh optimum after the linear term is perturbed slightly,
// and after the row limit moves — the successive-QP situation of
// re-dispatch after a rating change. A tightened limit that cuts off the
// warm point must take the cold path.
func TestWarmSetAfterPerturbation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	coldFallbacks := 0
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(4)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			_ = p.SetQuadCoeff(j, j, 1+r.Float64())
			_ = p.SetLinCoeff(j, -4*r.Float64())
			_ = p.SetBounds(j, 0, 1+r.Float64())
		}
		row := make([]float64, n)
		for j := range row {
			row[j] = r.Float64()
		}
		_, _ = p.AddInequality(row, 0.5)
		cold, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		for j := 0; j < n; j++ {
			_ = p.SetLinCoeff(j, p.c[j]+0.01*(r.Float64()-0.5))
		}
		p.hin[0] = 0.5 + 0.1*(r.Float64()-0.5)
		ref, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d ref: %v", trial, err)
		}
		warm, warmStarts, lps := solveCounted(t, p, Options{Warm: warmOf(cold)})
		if math.Abs(warm.Objective-ref.Objective) > 1e-5*(1+math.Abs(ref.Objective)) {
			t.Fatalf("trial %d: warm objective %v, ref %v", trial, warm.Objective, ref.Objective)
		}
		cutOff := mat.Dot(row, cold.X) > p.hin[0]+1e-8
		if cutOff != (warmStarts == 0 && lps > 0) {
			t.Fatalf("trial %d: warm point cut off %v, but %d warm starts and %d feasibility LPs",
				trial, cutOff, warmStarts, lps)
		}
		if cutOff {
			coldFallbacks++
		}
	}
	if coldFallbacks == 0 {
		t.Fatal("no trial cut off its warm point; the cold fallback went untested")
	}
}
