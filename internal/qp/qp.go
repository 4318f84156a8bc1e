// Package qp implements a primal active-set solver for convex quadratic
// programs:
//
//	minimize    ½·xᵀHx + cᵀx
//	subject to  A x  = b      (equality rows)
//	            G x ≤ h       (inequality rows)
//	            l ≤ x ≤ u     (bounds, folded into G internally)
//
// H must be symmetric positive semidefinite and positive definite on the
// feasible directions (true for economic dispatch with strictly convex
// generation costs). A feasible starting point comes from a previous solve's
// end state (Options.Warm) when that point is still feasible, and from the
// lp package otherwise; subsequent iterations solve equality-constrained KKT
// systems via LU.
package qp

import (
	"errors"
	"fmt"
	"math"

	"github.com/edsec/edattack/internal/lp"
	"github.com/edsec/edattack/internal/mat"
	"github.com/edsec/edattack/internal/telemetry"
)

// ErrIterLimit is returned when the active-set loop exceeds its budget.
var ErrIterLimit = errors.New("qp: iteration limit exceeded")

// ErrInfeasible is returned when no point satisfies the constraints.
var ErrInfeasible = errors.New("qp: infeasible")

// Problem is a convex QP under construction. Create with NewProblem.
type Problem struct {
	n     int
	h     *mat.Matrix
	c     []float64
	aeq   [][]float64
	beq   []float64
	gin   [][]float64
	hin   []float64
	lower []float64
	upper []float64
}

// NewProblem returns a QP with n variables, zero objective, and free bounds.
func NewProblem(n int) *Problem {
	p := &Problem{
		n:     n,
		h:     mat.New(n, n),
		c:     make([]float64, n),
		lower: make([]float64, n),
		upper: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		p.lower[i] = math.Inf(-1)
		p.upper[i] = math.Inf(1)
	}
	return p
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return p.n }

// SetQuadCoeff sets H[i][j] (and H[j][i], keeping H symmetric).
func (p *Problem) SetQuadCoeff(i, j int, v float64) error {
	if i < 0 || i >= p.n || j < 0 || j >= p.n {
		return fmt.Errorf("qp: quad index (%d,%d) out of range", i, j)
	}
	p.h.Set(i, j, v)
	p.h.Set(j, i, v)
	return nil
}

// SetLinCoeff sets the linear objective coefficient of variable j.
func (p *Problem) SetLinCoeff(j int, v float64) error {
	if j < 0 || j >= p.n {
		return fmt.Errorf("qp: linear index %d out of range", j)
	}
	p.c[j] = v
	return nil
}

// SetBounds sets the bounds of variable j.
func (p *Problem) SetBounds(j int, lo, hi float64) error {
	if j < 0 || j >= p.n {
		return fmt.Errorf("qp: bound index %d out of range", j)
	}
	if lo > hi {
		return fmt.Errorf("qp: variable %d has lower bound %g > upper bound %g", j, lo, hi)
	}
	p.lower[j] = lo
	p.upper[j] = hi
	return nil
}

// AddEquality appends an equality row aᵀx = b and returns its index.
func (p *Problem) AddEquality(a []float64, b float64) (int, error) {
	if len(a) != p.n {
		return 0, fmt.Errorf("qp: equality row has %d coefficients, want %d", len(a), p.n)
	}
	row := make([]float64, p.n)
	copy(row, a)
	p.aeq = append(p.aeq, row)
	p.beq = append(p.beq, b)
	return len(p.aeq) - 1, nil
}

// AddInequality appends an inequality row gᵀx ≤ h and returns its index.
func (p *Problem) AddInequality(g []float64, h float64) (int, error) {
	if len(g) != p.n {
		return 0, fmt.Errorf("qp: inequality row has %d coefficients, want %d", len(g), p.n)
	}
	row := make([]float64, p.n)
	copy(row, g)
	p.gin = append(p.gin, row)
	p.hin = append(p.hin, h)
	return len(p.gin) - 1, nil
}

// Solution is the result of a successful Solve.
type Solution struct {
	// X is the optimal point.
	X []float64
	// Objective is ½xᵀHx + cᵀx at X.
	Objective float64
	// EqDual holds one multiplier per equality row (ν in H x + c + Aᵀν +
	// Gᵀλ = 0).
	EqDual []float64
	// IneqDual holds one non-negative multiplier per user inequality row.
	IneqDual []float64
	// LowerDual and UpperDual hold the non-negative multipliers of active
	// variable bounds.
	LowerDual []float64
	UpperDual []float64
	// Iterations is the number of active-set iterations performed.
	Iterations int
	// Working is the final working set as row keys, in working-set order:
	// user inequality row i is RowKeys[i]<<2 (i<<2 without usable RowKeys), the
	// upper bound of variable j is j<<2|1 and its lower bound j<<2|2.
	// Together with X it is the state a later solve of a nearby problem
	// starts from through Options.Warm.
	Working []int64
}

// WarmStart is a previous solve's end state offered to the next solve of a
// nearby problem — the QP analogue of the lp package's basis reuse.
type WarmStart struct {
	// X is the previous optimum (Solution.X).
	X []float64
	// Working is the previous final working set (Solution.Working).
	Working []int64
}

// Options tune the solver.
type Options struct {
	// MaxIter caps active-set iterations (default 2000).
	MaxIter int
	// Tol is the numeric tolerance (default 1e-8).
	Tol float64
	// Metrics, when non-nil, receives qp_* solve/iteration counters and
	// forwards to the feasibility LP's lp_* counters.
	Metrics *telemetry.Registry
	// Warm, when non-nil, starts the solve from a previous solve's end
	// state. If Warm.X satisfies every equality, inequality and bound row
	// to within Tol, the feasibility LP is skipped and the working set is
	// seeded with the rows of Warm.Working that are active at Warm.X;
	// otherwise the solve starts cold. The optimum is unique, so a stale
	// warm state costs speed, never correctness.
	Warm *WarmStart
	// DenseKKT forces every KKT system onto the dense factorization
	// instead of letting the solver pick the sparse LU by system size and
	// density; used for A/B measurement against dense baselines.
	DenseKKT bool
	// Cache, when non-nil, lets the sparse KKT path reuse factorization
	// work across solves of structurally identical problems: the caller
	// asserts that the Hessian, the equality-row gradients, the bound
	// structure, and the gradient behind every RowKeys identity are
	// unchanged since the cache was filled. Objective vectors and all
	// right-hand sides may differ. Requires RowKeys when user inequality
	// rows are present; ignored otherwise. Not safe for concurrent use.
	Cache *KKTCache
	// RowKeys assigns a stable identity in [0, 2²⁸) to each user
	// inequality row, parallel to AddInequality order, so the Cache can
	// recognize the same constraint across solves even when the row set
	// (and hence row positions) changes.
	RowKeys []int64
	// Workspace, when non-nil, supplies the active-set iteration's working
	// storage (row list, Schur right-hand-side and memo buffers, step
	// direction), reused across solves so a steady-state QP re-solve under a
	// warm KKTCache stays off the allocator. The feasibility LP deliberately
	// does not use it: its solution vector becomes the iterate and is
	// mutated in place, so it must own its storage. Results are
	// bit-identical with and without a workspace. Not safe for concurrent
	// use.
	Workspace *lp.Workspace
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 2000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	return o
}

// Solve solves the QP with default options.
func Solve(p *Problem) (*Solution, error) {
	return SolveWith(p, Options{})
}

// ineqRow is one generalized inequality (user row or bound) in gᵀx ≤ h form.
type ineqRow struct {
	g    []float64 // nil means a bound row described by (idx, sign)
	idx  int
	sign float64 // +1: x_idx ≤ h, −1: −x_idx ≤ h
	h    float64
	kind rowKind
}

type rowKind int

const (
	kindUser rowKind = iota + 1
	kindLower
	kindUpper
)

func (r *ineqRow) value(x []float64) float64 {
	if r.g != nil {
		return mat.Dot(r.g, x)
	}
	return r.sign * x[r.idx]
}

func (r *ineqRow) dirDot(d []float64) float64 {
	if r.g != nil {
		return mat.Dot(r.g, d)
	}
	return r.sign * d[r.idx]
}

// SolveWith solves the QP with explicit options.
func SolveWith(p *Problem, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	m := opts.Metrics
	if m != nil {
		m.Counter("qp_solves_total").Inc()
	}
	sc := scratchFrom(opts.Workspace)
	var rowBuf []ineqRow
	if sc != nil {
		rowBuf = sc.rows
	}
	rows := gatherIneqsInto(p, rowBuf)
	x := warmPoint(p, rows, opts)
	warm := x != nil
	if warm {
		if m != nil {
			m.Counter("qp_warm_starts_total").Inc()
		}
	} else {
		var err error
		if x, err = feasibleStart(p, opts); err != nil {
			if sc != nil {
				sc.rows = rows
			}
			if m != nil && errors.Is(err, ErrInfeasible) {
				m.Counter("qp_infeasible_total").Inc()
			}
			return nil, err
		}
	}
	var s *activeSet
	if sc != nil {
		s = sc.attach(p, rows, x, opts)
	} else {
		s = &activeSet{p: p, rows: rows, x: x, opts: opts}
	}
	s.warm = warm
	sol, err := s.run()
	if sc != nil {
		sc.reclaim(s)
	}
	if m != nil {
		if sol != nil {
			m.Counter("qp_iterations_total").Add(int64(sol.Iterations))
			m.Histogram("qp_iterations", telemetry.IterBuckets).Observe(float64(sol.Iterations))
		}
		if err != nil {
			m.Counter("qp_errors_total").Inc()
		}
	}
	return sol, err
}

// gatherIneqs folds user inequalities and finite bounds into one row list.
func gatherIneqs(p *Problem) []ineqRow { return gatherIneqsInto(p, nil) }

// gatherIneqsInto is gatherIneqs appending into buf's backing array.
func gatherIneqsInto(p *Problem, buf []ineqRow) []ineqRow {
	rows := buf[:0]
	if cap(rows) == 0 {
		rows = make([]ineqRow, 0, len(p.gin)+2*p.n)
	}
	for i, g := range p.gin {
		rows = append(rows, ineqRow{g: g, h: p.hin[i], kind: kindUser, idx: i})
	}
	for j := 0; j < p.n; j++ {
		if !math.IsInf(p.upper[j], 1) {
			rows = append(rows, ineqRow{idx: j, sign: 1, h: p.upper[j], kind: kindUpper})
		}
		if !math.IsInf(p.lower[j], -1) {
			rows = append(rows, ineqRow{idx: j, sign: -1, h: -p.lower[j], kind: kindLower})
		}
	}
	return rows
}

// warmPoint returns a copy of opts.Warm.X when it satisfies every row of p
// to within opts.Tol, and nil — meaning start cold — otherwise.
func warmPoint(p *Problem, rows []ineqRow, opts Options) []float64 {
	w := opts.Warm
	if w == nil || len(w.X) != p.n {
		return nil
	}
	tol := opts.Tol
	for e, a := range p.aeq {
		if r := mat.Dot(a, w.X) - p.beq[e]; !(math.Abs(r) <= tol*(1+math.Abs(p.beq[e]))) {
			return nil
		}
	}
	for i := range rows {
		if !(rows[i].h-rows[i].value(w.X) >= -tol) {
			return nil
		}
	}
	return mat.CloneVec(w.X)
}

// feasibleStart finds any point satisfying the constraints via the LP solver.
func feasibleStart(p *Problem, opts Options) ([]float64, error) {
	lpOpts := lp.Options{Metrics: opts.Metrics}
	solveLP := func(prob *lp.Problem) (*lp.Solution, error) {
		if opts.Metrics != nil {
			opts.Metrics.Counter("qp_feasibility_lp_total").Inc()
		}
		return lp.SolveWith(prob, lpOpts)
	}
	prob := lp.NewProblem(p.n)
	for j := 0; j < p.n; j++ {
		if err := prob.SetBounds(j, p.lower[j], p.upper[j]); err != nil {
			return nil, fmt.Errorf("qp: %w", err)
		}
	}
	for i, a := range p.aeq {
		if _, err := prob.AddConstraint(a, lp.EQ, p.beq[i]); err != nil {
			return nil, fmt.Errorf("qp: %w", err)
		}
	}
	for i, g := range p.gin {
		if _, err := prob.AddConstraint(g, lp.LE, p.hin[i]); err != nil {
			return nil, fmt.Errorf("qp: %w", err)
		}
	}
	// Minimizing the linear part of the QP objective gives a start point
	// that is usually close to the QP optimum's active set.
	_ = prob.SetObjective(p.c, false)
	sol, err := solveLP(prob)
	if err != nil {
		// A cᵀx phase can be unbounded even when the QP is well posed;
		// retry with a pure feasibility objective.
		prob.SetMaximize(false)
		zero := make([]float64, p.n)
		_ = prob.SetObjective(zero, false)
		sol, err = solveLP(prob)
		if err != nil {
			return nil, fmt.Errorf("qp: feasibility LP failed: %w", err)
		}
	}
	switch sol.Status {
	case lp.Optimal:
		return sol.X, nil
	case lp.Unbounded:
		zero := make([]float64, p.n)
		_ = prob.SetObjective(zero, false)
		sol, err = solveLP(prob)
		if err != nil {
			return nil, fmt.Errorf("qp: feasibility LP failed: %w", err)
		}
		if sol.Status != lp.Optimal {
			return nil, ErrInfeasible
		}
		return sol.X, nil
	default:
		return nil, ErrInfeasible
	}
}
