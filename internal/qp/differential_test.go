package qp

import (
	"math"
	"math/rand"
	"testing"
)

// randomConvexQP builds a strictly convex QP shaped like economic dispatch:
// diagonal positive-definite Hessian, one dense equality (the balance row),
// finite bounds, and sparse-gradient inequality rows, sized past
// kktSparseMinDim so the Schur path engages.
func randomConvexQP(r *rand.Rand) (*Problem, []int64) {
	n := kktSparseMinDim + r.Intn(16)
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		_ = p.SetQuadCoeff(j, j, 0.5+2*r.Float64())
		_ = p.SetLinCoeff(j, -3+6*r.Float64())
		lo := -1 + 2*r.Float64()
		_ = p.SetBounds(j, lo, lo+1+3*r.Float64())
	}
	ones := make([]float64, n)
	total := 0.0
	for j := 0; j < n; j++ {
		ones[j] = 1
		lo, hi := p.lower[j], p.upper[j]
		total += lo + (hi-lo)*r.Float64()
	}
	_, _ = p.AddEquality(ones, total)
	var keys []int64
	m := 2 + r.Intn(6)
	for i := 0; i < m; i++ {
		g := make([]float64, n)
		for j := 0; j < n; j++ {
			if r.Float64() < 0.3 {
				g[j] = -1 + 2*r.Float64()
			}
		}
		// Anchor the limit loosely above the box midpoint activity so rows
		// are plausible but not trivially slack.
		act := 0.0
		for j := 0; j < n; j++ {
			act += g[j] * (p.lower[j] + p.upper[j]) / 2
		}
		_, _ = p.AddInequality(g, act+0.2+r.Float64())
		keys = append(keys, int64(i))
	}
	return p, keys
}

// TestDifferentialSchurVsDenseKKT drives the bordered sparse KKT path and
// the dense factorization over randomized dispatch-shaped QPs: both must
// agree on feasibility, objective (1e-7), and the primal point.
func TestDifferentialSchurVsDenseKKT(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	solved := 0
	for trial := 0; trial < 150; trial++ {
		p, _ := randomConvexQP(r)
		dense, derr := SolveWith(p, Options{DenseKKT: true})
		sparse, serr := SolveWith(p, Options{})
		if (derr == nil) != (serr == nil) {
			t.Fatalf("trial %d: dense err %v vs sparse err %v", trial, derr, serr)
		}
		if derr != nil {
			continue
		}
		solved++
		if d := math.Abs(dense.Objective - sparse.Objective); d > 1e-7*(1+math.Abs(dense.Objective)) {
			t.Fatalf("trial %d: objective gap %g (dense %.12g sparse %.12g)",
				trial, d, dense.Objective, sparse.Objective)
		}
		for j := range dense.X {
			if math.Abs(dense.X[j]-sparse.X[j]) > 1e-6 {
				t.Fatalf("trial %d: x[%d] = %.12g dense vs %.12g sparse", trial, j, dense.X[j], sparse.X[j])
			}
		}
	}
	if solved < 50 {
		t.Fatalf("only %d/150 trials solved; generator is degenerate", solved)
	}
	t.Logf("%d QPs differentially verified", solved)
}

// TestKKTCacheTransparency is the bit-level regression test for cross-solve
// factorization reuse: solving a sequence of problems that share structure
// but vary right-hand sides through one KKTCache must give results
// bit-identical to solving each with a fresh cache. Cached border columns,
// Schur dots, and Schur factorizations are all computed once and reused, so
// any drift here means the cache is not the pure memoization it claims.
func TestKKTCacheTransparency(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	build := func(shift float64) (*Problem, []int64) {
		// Same structure every call: n, H, bounds, gradients fixed by a
		// dedicated rng; only the inequality limits move with shift.
		rs := rand.New(rand.NewSource(99))
		p, keys := randomConvexQP(rs)
		for i := range p.hin {
			p.hin[i] += shift
		}
		return p, keys
	}
	shared := &KKTCache{}
	for trial := 0; trial < 30; trial++ {
		shift := 0.5 * r.Float64()
		pa, keys := build(shift)
		a, aerr := SolveWith(pa, Options{Cache: shared, RowKeys: keys})
		pb, keysB := build(shift)
		b, berr := SolveWith(pb, Options{Cache: &KKTCache{}, RowKeys: keysB})
		if (aerr == nil) != (berr == nil) {
			t.Fatalf("trial %d: cached err %v vs fresh err %v", trial, aerr, berr)
		}
		if aerr != nil {
			continue
		}
		if a.Objective != b.Objective {
			t.Fatalf("trial %d: cached objective %.17g != fresh %.17g", trial, a.Objective, b.Objective)
		}
		for j := range a.X {
			if a.X[j] != b.X[j] {
				t.Fatalf("trial %d: cached x[%d] %.17g != fresh %.17g", trial, j, a.X[j], b.X[j])
			}
		}
		if a.Iterations != b.Iterations {
			t.Fatalf("trial %d: cached iterations %d != fresh %d", trial, a.Iterations, b.Iterations)
		}
	}
}

// TestKKTCacheShapeReset checks the cache self-invalidates when the problem
// shape changes (a misuse guard, not a supported workflow).
func TestKKTCacheShapeReset(t *testing.T) {
	shared := &KKTCache{}
	r := rand.New(rand.NewSource(5))
	p1, k1 := randomConvexQP(r)
	if _, err := SolveWith(p1, Options{Cache: shared, RowKeys: k1}); err != nil {
		t.Fatalf("first solve: %v", err)
	}
	var p2 *Problem
	var k2 []int64
	for {
		p2, k2 = randomConvexQP(r)
		if p2.n != p1.n {
			break
		}
	}
	sol2, err := SolveWith(p2, Options{Cache: shared, RowKeys: k2})
	if err != nil {
		t.Fatalf("second solve after shape change: %v", err)
	}
	ref, err := SolveWith(p2, Options{DenseKKT: true})
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	if d := math.Abs(sol2.Objective - ref.Objective); d > 1e-7*(1+math.Abs(ref.Objective)) {
		t.Fatalf("objective after cache reset off by %g", d)
	}
}

// TestKKTCacheSlotsFollowWorkingRows checks the cached Schur tables grow
// only with rows that enter a KKT system: many slack rows, none of which can
// ever be active or block a step, take no slots, and the pair table covers
// exactly the slots taken. Results stay bit-identical to a fresh cache.
func TestKKTCacheSlotsFollowWorkingRows(t *testing.T) {
	const slackRows = 200
	build := func(shift float64) (*Problem, []int64) {
		rs := rand.New(rand.NewSource(41))
		p, keys := randomConvexQP(rs)
		for i := range p.hin {
			p.hin[i] += shift
		}
		for i := 0; i < slackRows; i++ {
			g := make([]float64, p.n)
			g[rs.Intn(p.n)] = 1
			_, _ = p.AddInequality(g, 1e6)
			keys = append(keys, int64(len(keys)))
		}
		return p, keys
	}
	shared := &KKTCache{}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		shift := 0.5 * r.Float64()
		pa, keys := build(shift)
		a, aerr := SolveWith(pa, Options{Cache: shared, RowKeys: keys})
		pb, keysB := build(shift)
		b, berr := SolveWith(pb, Options{Cache: &KKTCache{}, RowKeys: keysB})
		if (aerr == nil) != (berr == nil) {
			t.Fatalf("trial %d: cached err %v vs fresh err %v", trial, aerr, berr)
		}
		if aerr != nil {
			continue
		}
		for j := range a.X {
			if a.X[j] != b.X[j] {
				t.Fatalf("trial %d: cached x[%d] %.17g != fresh %.17g", trial, j, a.X[j], b.X[j])
			}
		}
	}
	sc := shared.sc
	if sc == nil {
		t.Fatal("Schur path did not engage")
	}
	p, _ := build(0)
	s := len(sc.cols)
	if limit := 2*p.n + len(p.gin) - slackRows; s == 0 || s > limit {
		t.Fatalf("%d slots taken; want 1..%d (bounds and non-slack rows only)", s, limit)
	}
	if len(sc.dots) != s*(s+1)/2 || len(sc.slot) != s {
		t.Fatalf("%d slots but %d pair dots and %d keys", s, len(sc.dots), len(sc.slot))
	}
}
