package qp

import (
	"errors"
	"fmt"
	"math"

	"github.com/edsec/edattack/internal/mat"
	"github.com/edsec/edattack/internal/sparse"
)

// Base KKT matrices at or above this dimension with at most this density
// are factorized with the sparse LU and working sets handled by bordering;
// smaller or denser systems keep the dense path (which also serves as the
// differential oracle).
const (
	kktSparseMinDim     = 16
	kktSparseMaxDensity = 0.3
)

// activeSet runs the primal active-set iteration.
type activeSet struct {
	p    *Problem
	rows []ineqRow
	x    []float64
	opts Options
	work []int // indices into rows forming the working set
	// warm marks a solve started from Options.Warm.X instead of the
	// feasibility LP's vertex.
	warm bool

	// Hessian and equality-row sparsity, extracted once per solve.
	hInd   [][]int
	hVal   [][]float64
	hNNZ   int
	aeqNNZ int

	// Bordered sparse KKT machinery; nil when the base matrix is too small,
	// too dense, or singular, in which case every solve takes the dense path.
	schur      *kktSchur
	schurTried bool

	// keys[i] is rows[i]'s identity (see rowKeys), reported in
	// Solution.Working and, when stable, valid across solves sharing a
	// KKTCache. slots[i] is that key's position in the kktSchur tables, −1
	// until the row first enters a KKT system in this solve.
	keys   []int64
	stable bool
	slots  []int32
	// rowOf maps keys back to rows for warm seeding, and seedRows holds the
	// rows the working set is seeded from, in order.
	rowOf    map[int64]int32
	seedRows []int
	// w0 = B⁻¹·[−c; beq] and the per-row dots ĝ_wᵀ·w0, per solve (the
	// objective and right-hand sides may differ between cached solves).
	w0    []float64
	rw0   []float64
	rw0ok []bool
	// keyBuf is scratch for packing working sets into map keys.
	keyBuf []byte

	// Memoized last successful solve: the KKT solution depends only on the
	// working set (the iterate moves neither the matrix nor the right-hand
	// side), and run() solves each candidate set twice — once probing
	// independence in tryKKT, once for the step in the next iteration — so
	// remembering the last result halves the work. memoOK gates validity so
	// the buffers themselves can persist in a qpScratch across solves.
	memoOK   bool
	memoWork []int
	memoX    []float64
	memoNu   []float64
	memoLam  []float64

	// Reused per-call buffers (scratch-backed under a Workspace): the
	// bordered solution vector, Schur right-hand side, memo hand-out copies,
	// step direction, and candidate working set. A KKT solution handed out
	// from uBuf/ret* is valid until the next solveKKT call, which is how
	// run() already consumes it. schurBuf holds the Schur matrix being
	// assembled (mat.Factor copies it) and inWorkBuf the ratio test's
	// working-set membership.
	uBuf      []float64
	rhsBuf    []float64
	retX      []float64
	retNu     []float64
	retLam    []float64
	dBuf      []float64
	schurBuf  []float64
	inWorkBuf []bool
	cand      []int
}

// KKTCache carries factorization work reusable across solves of structurally
// identical QPs: same Hessian, same equality rows, same bound structure, and
// the same gradient behind every stable inequality-row key (see
// Options.RowKeys). Objective vectors and all right-hand sides — beq,
// inequality limits, bound values — may differ freely between solves; those
// enter only through per-solve vectors. The canonical client is repeated
// economic dispatch under varying line ratings, where every KKT matrix is
// drawn from one fixed family.
//
// The zero value is ready to use. A KKTCache is not safe for concurrent use;
// per-worker model clones must each own one.
type KKTCache struct {
	n, me int
	tried bool
	sc    *kktSchur
}

// kktSchur solves working-set KKT systems by bordering: the base matrix
//
//	B = ⎡H  Aeqᵀ⎤
//	    ⎣Aeq  0 ⎦
//
// is fixed for the whole active-set run and factorized sparsely once; a
// working set {w₁…w_mw} extends it with border columns ĝ_w (the row
// gradients, zero-padded over the equality block). The bordered system
//
//	⎡B  G⎤ ⎡u⎤ = ⎡r⎤        G = [ĝ_w₁ … ĝ_w_mw]
//	⎣Gᵀ 0⎦ ⎣λ⎦   ⎣h⎦
//
// reduces to the mw×mw dense Schur complement S = GᵀB⁻¹G:
//
//	S·λ = GᵀB⁻¹r − h,   u = B⁻¹r − (B⁻¹G)·λ
//
// B⁻¹ĝ_w is cached per row key, every Schur entry ĝ_vᵀB⁻¹ĝ_w is cached per
// key pair, and Schur factorizations are cached per working set — all of
// which depend only on the gradients, so with a cross-solve KKTCache a
// steady-state KKT solve costs one small triangular solve instead of the
// dense (n+me+mw)³ factorization it replaced.
//
// A row key gets a slot the first time its row enters a KKT system, and the
// per-key and per-pair caches are flat tables indexed by slot, so the inner
// Schur assembly does no hashing. Only rows that ever join a working set (or
// are tried for one) take slots, and the pair table grows with them: with s
// slots it holds s(s+1)/2 dots, every pair whether or not it was used.
type kktSchur struct {
	dim0 int        // n + me
	base *sparse.LU // factorization of B

	slot  map[int64]int32    // row key → slot
	cols  [][]float64        // slot → B⁻¹·ĝ_w (nil until first use)
	dots  []float64          // slot pair (lower triangle) → ĝ_vᵀ·B⁻¹·ĝ_w, NaN until first use
	sfact map[string]*mat.LU // packed working set → Schur factorization
	sbad  map[string]bool    // packed working set → singular (dependent)
	// sbytes is the memory the sfact entries hold, bounded by
	// schurCacheBytes.
	sbytes int
}

// schurCacheBytes bounds the memory the cached Schur factorizations hold:
// past it, or past 1,024 entries, the cache starts over. A refactorization
// is bit-identical to the factor it replaces, so clearing changes speed
// only. Case118 dispatch caches peak near 19 MB at the entry cap and never
// reach the budget; without it, grow1000's (~1.3 MB per factor) kept about
// 1 GB live.
const schurCacheBytes = 32 << 20

// run iterates: solve the equality-constrained QP on the working set, then
// either take a (possibly blocked) step, drop a constraint with a negative
// multiplier, or declare optimality.
func (s *activeSet) run() (*Solution, error) {
	tol := s.opts.Tol
	s.stable = s.rowKeys()
	s.seed()
	for iter := 0; iter < s.opts.MaxIter; iter++ {
		xStar, nu, lam, err := s.solveKKT(s.work)
		if err != nil {
			// Dependent working set: drop the newest row and retry.
			if len(s.work) == 0 {
				return nil, fmt.Errorf("qp: KKT solve failed with empty working set: %w", err)
			}
			s.work = s.work[:len(s.work)-1]
			continue
		}
		d := growFloat(s.dBuf, len(s.x))
		s.dBuf = d
		for j := range d {
			d[j] = xStar[j] - s.x[j]
		}
		if mat.NormInf(d) < tol {
			// Candidate optimum: check multiplier signs.
			minIdx, minVal := -1, -tol
			for k := range s.work {
				if lam[k] < minVal {
					minVal, minIdx = lam[k], k
				}
			}
			if minIdx < 0 {
				// The start point can lie within Tol of the optimum
				// without a step; land on the KKT point either way.
				for j := range s.x {
					s.x[j] += d[j]
				}
				sol := s.assemble(nu, lam)
				sol.Iterations = iter + 1
				return sol, nil
			}
			s.work = append(s.work[:minIdx], s.work[minIdx+1:]...)
			continue
		}
		// Ratio test against rows not in the working set.
		inWork := growBool(s.inWorkBuf, len(s.rows))
		s.inWorkBuf = inWork
		clear(inWork)
		for _, w := range s.work {
			inWork[w] = true
		}
		alpha, blocking := 1.0, -1
		for i := range s.rows {
			if inWork[i] {
				continue
			}
			gd := s.rows[i].dirDot(d)
			if gd <= tol {
				continue
			}
			slack := s.rows[i].h - s.rows[i].value(s.x)
			if slack < 0 {
				slack = 0
			}
			if a := slack / gd; a < alpha {
				alpha, blocking = a, i
			}
		}
		for j := range s.x {
			s.x[j] += alpha * d[j]
		}
		if blocking >= 0 {
			cand := append(append(s.cand[:0], s.work...), blocking)
			s.cand = cand
			if s.tryKKT(cand) {
				s.work = append(s.work, blocking)
			} else if len(s.work) > 0 {
				// The blocking gradient is dependent on the working
				// set; make room by dropping the oldest row.
				s.work = s.work[1:]
			}
		}
	}
	return nil, fmt.Errorf("%w (after %d iterations)", ErrIterLimit, s.opts.MaxIter)
}

// seed fills the initial working set with rows active at the start point:
// for a warm start the rows of the previous working set, in its order; for
// a cold start every row, in row order. At most n − me rows fit an
// independent set. The whole seed is factored as one KKT system; only when
// that factorization fails are the rows adopted one by one, each kept if the
// system stays nonsingular. In exact arithmetic an independent batch is the
// set the one-by-one scan would build, since every prefix of an independent
// set is independent. In floating point the two can differ on nearly
// dependent rows (a factorization succeeds or fails by its pivot threshold),
// so the batch is a fast path, not a proof of the same working set; the
// identity gates over the dispatch-driven attacks are what pin the results.
func (s *activeSet) seed() {
	order := s.seedRows[:0]
	if s.warm {
		order = s.warmSeedRows(order)
	} else {
		for i := range s.rows {
			order = append(order, i)
		}
	}
	s.seedRows = order
	limit := s.p.n - len(s.p.aeq)
	tol := s.opts.Tol
	active := func(i int) bool { return s.rows[i].h-s.rows[i].value(s.x) < tol }
	batch := s.cand[:0]
	for _, i := range order {
		if len(batch) == limit {
			break
		}
		if active(i) {
			batch = append(batch, i)
		}
	}
	s.cand = batch
	if len(batch) == 0 {
		return
	}
	if s.tryKKT(batch) {
		s.work = append(s.work[:0], batch...)
		return
	}
	for _, i := range order {
		if len(s.work) == limit {
			break
		}
		if !active(i) {
			continue
		}
		cand := append(append(s.cand[:0], s.work...), i)
		s.cand = cand
		if s.tryKKT(cand) {
			s.work = append(s.work, i)
		}
	}
}

// warmSeedRows appends to order the rows named by the warm working set's
// keys, in warm order; repeated keys and keys naming no row of this problem
// are dropped.
func (s *activeSet) warmSeedRows(order []int) []int {
	if s.rowOf == nil {
		s.rowOf = make(map[int64]int32, len(s.rows))
	}
	clear(s.rowOf)
	for i, k := range s.keys {
		s.rowOf[k] = int32(i)
	}
	// inWorkBuf is free until the first ratio test; here it marks rows
	// already taken.
	taken := growBool(s.inWorkBuf, len(s.rows))
	s.inWorkBuf = taken
	clear(taken)
	for _, k := range s.opts.Warm.Working {
		if i, ok := s.rowOf[k]; ok && !taken[i] {
			taken[i] = true
			order = append(order, int(i))
		}
	}
	return order
}

// tryKKT reports whether the KKT matrix for the given working set is
// nonsingular.
func (s *activeSet) tryKKT(work []int) bool {
	_, _, _, err := s.solveKKT(work)
	return err == nil
}

// solveKKT solves the equality-constrained QP
//
//	min ½xᵀHx + cᵀx   s.t.  Aeq·x = beq,  rows[w]·x = h[w] for w ∈ work
//
// returning the minimizer and the multipliers (ν for equalities, λ for
// working-set rows).
func (s *activeSet) solveKKT(work []int) (x, nu, lam []float64, err error) {
	if !s.opts.DenseKKT {
		if !s.schurTried {
			s.initSchur()
		}
		if s.schur != nil {
			return s.solveKKTSchur(work)
		}
	}
	n := s.p.n
	me := len(s.p.aeq)
	rhs := make([]float64, n+me+len(work))
	for i := 0; i < n; i++ {
		rhs[i] = -s.p.c[i]
	}
	for e := 0; e < me; e++ {
		rhs[n+e] = s.p.beq[e]
	}
	for k, w := range work {
		rhs[n+me+k] = s.rows[w].h
	}
	return s.solveKKTDense(work, rhs)
}

// initSchur decides once per solve whether the base KKT matrix is worth
// factorizing sparsely and, if so, factors it (or adopts a cached
// factorization) and computes B⁻¹r for this solve's right-hand side.
func (s *activeSet) initSchur() {
	s.schurTried = true
	n := s.p.n
	me := len(s.p.aeq)
	if n+me < kktSparseMinDim {
		return
	}
	cache := s.opts.Cache
	if !s.stable {
		cache = nil // no stable row identity: cross-solve reuse is unsound
	}
	if cache != nil && cache.tried && cache.n == n && cache.me == me {
		s.schur = cache.sc
	} else {
		s.schur = s.buildSchur()
		if cache != nil {
			*cache = KKTCache{n: n, me: me, tried: true, sc: s.schur}
		}
	}
	if s.schur == nil {
		return
	}
	s.initW0()
	s.slots = growInt32(s.slots, len(s.rows))
	for i := range s.slots {
		s.slots[i] = -1
	}
}

// rowKeys fills keys with each row's identity: user inequality row i is
// RowKeys[i]<<2, the upper bound of variable j is j<<2|1 and its lower bound
// j<<2|2. It reports whether the keys are stable across solves; without
// usable caller keys (missing, wrong length, or outside [0, 2²⁸)) user row i
// is i<<2 instead, unique within this solve only, and cross-solve caching is
// off.
func (s *activeSet) rowKeys() bool {
	rk := s.opts.RowKeys
	stable := len(s.p.gin) == 0 || len(rk) == len(s.p.gin)
	if len(s.p.gin) > 0 && stable {
		for _, k := range rk {
			if k < 0 || k >= 1<<28 {
				stable = false
				break
			}
		}
	}
	s.keys = growInt64(s.keys, len(s.rows))
	for i := range s.rows {
		r := &s.rows[i]
		switch r.kind {
		case kindUser:
			k := int64(r.idx)
			if stable {
				k = rk[r.idx]
			}
			s.keys[i] = k << 2
		case kindUpper:
			s.keys[i] = int64(r.idx)<<2 | 1
		case kindLower:
			s.keys[i] = int64(r.idx)<<2 | 2
		}
	}
	return stable
}

// slotOf returns row w's kktSchur slot, giving a key seen for the first time
// the next free slot and a row of NaN (not yet computed) dots.
func (s *activeSet) slotOf(w int) int32 {
	if sl := s.slots[w]; sl >= 0 {
		return sl
	}
	k := s.schur
	sl, ok := k.slot[s.keys[w]]
	if !ok {
		sl = int32(len(k.cols))
		k.slot[s.keys[w]] = sl
		k.cols = append(k.cols, nil)
		for j := int32(0); j <= sl; j++ {
			k.dots = append(k.dots, math.NaN())
		}
	}
	s.slots[w] = sl
	return sl
}

// buildSchur assembles and factors the base matrix B sparsely, returning nil
// when it is too dense or singular (H not positive definite on the equality
// null space), in which case the bordered reduction does not apply.
func (s *activeSet) buildSchur() *kktSchur {
	n := s.p.n
	me := len(s.p.aeq)
	dim0 := n + me
	if s.hInd == nil {
		s.scanSparsity()
	}
	nnz := s.hNNZ + 2*s.aeqNNZ
	if float64(nnz) > kktSparseMaxDensity*float64(dim0)*float64(dim0) {
		return nil
	}
	ind := make([][]int, dim0)
	val := make([][]float64, dim0)
	for j := 0; j < n; j++ {
		rs := make([]int, 0, len(s.hInd[j])+me)
		vs := make([]float64, 0, len(s.hVal[j])+me)
		rs = append(rs, s.hInd[j]...)
		vs = append(vs, s.hVal[j]...)
		for e := 0; e < me; e++ {
			if v := s.p.aeq[e][j]; v != 0 {
				rs = append(rs, n+e)
				vs = append(vs, v)
			}
		}
		ind[j], val[j] = rs, vs
	}
	for e := 0; e < me; e++ {
		var rs []int
		var vs []float64
		for j, v := range s.p.aeq[e] {
			if v != 0 {
				rs = append(rs, j)
				vs = append(vs, v)
			}
		}
		ind[n+e], val[n+e] = rs, vs
	}
	base, err := sparse.FactorColumns(dim0, ind, val)
	if err != nil {
		return nil
	}
	return &kktSchur{
		dim0:  dim0,
		base:  base,
		slot:  make(map[int64]int32),
		sfact: make(map[string]*mat.LU),
		sbad:  make(map[string]bool),
	}
}

// initW0 computes this solve's B⁻¹·[−c; beq] and resets the per-solve
// right-hand-side dot cache.
func (s *activeSet) initW0() {
	n := s.p.n
	w0 := growFloat(s.w0, s.schur.dim0)
	for i := 0; i < n; i++ {
		w0[i] = -s.p.c[i]
	}
	for e := 0; e < len(s.p.aeq); e++ {
		w0[n+e] = s.p.beq[e]
	}
	for i := n + len(s.p.aeq); i < len(w0); i++ {
		w0[i] = 0
	}
	s.schur.base.Solve(w0)
	s.w0 = w0
	s.rw0 = growFloat(s.rw0, len(s.rows))
	s.rw0ok = growBool(s.rw0ok, len(s.rows))
	for i := range s.rw0ok {
		s.rw0ok[i] = false
	}
}

// borderCol returns B⁻¹·ĝ_w, computing and caching it on first use. The
// cache never invalidates: B and the gradient behind a key are fixed for
// the cache's lifetime.
func (s *activeSet) borderCol(w int) []float64 {
	sl := s.slotOf(w)
	if c := s.schur.cols[sl]; c != nil {
		return c
	}
	v := make([]float64, s.schur.dim0)
	r := &s.rows[w]
	if r.g != nil {
		copy(v, r.g)
	} else {
		v[r.idx] = r.sign
	}
	s.schur.base.Solve(v)
	s.schur.cols[sl] = v
	return v
}

// pairDot returns ĝ_vᵀ·B⁻¹·ĝ_w, cached per unordered key pair (the base is
// symmetric, so the dot is too; computing it from the row with the smaller
// key makes the cached value — and hence the Schur matrix — exactly
// symmetric).
func (s *activeSet) pairDot(wi, wj int) float64 {
	if s.keys[wi] > s.keys[wj] {
		wi, wj = wj, wi
	}
	lo, hi := s.slotOf(wi), s.slotOf(wj)
	if lo > hi {
		lo, hi = hi, lo
	}
	at := int(hi)*(int(hi)+1)/2 + int(lo)
	if v := s.schur.dots[at]; !math.IsNaN(v) {
		return v
	}
	v := rowDot(&s.rows[wi], s.borderCol(wj))
	s.schur.dots[at] = v
	return v
}

// rhsDot returns ĝ_wᵀ·w0, cached per row for this solve.
func (s *activeSet) rhsDot(w int) float64 {
	if s.rw0ok[w] {
		return s.rw0[w]
	}
	v := rowDot(&s.rows[w], s.w0)
	s.rw0[w], s.rw0ok[w] = v, true
	return v
}

// workKey packs a working set's row keys into a map key.
func (s *activeSet) workKey(work []int) string {
	buf := s.keyBuf[:0]
	for _, w := range work {
		k := uint32(s.keys[w])
		buf = append(buf, byte(k), byte(k>>8), byte(k>>16), byte(k>>24))
	}
	s.keyBuf = buf
	return string(buf)
}

// rowDot is ĝ_wᵀ·v for a vector over the base dimension (the gradient is
// zero over the equality block).
func rowDot(r *ineqRow, v []float64) float64 {
	if r.g == nil {
		return r.sign * v[r.idx]
	}
	d := 0.0
	for j, g := range r.g {
		if g != 0 {
			d += g * v[j]
		}
	}
	return d
}

// solveKKTSchur solves the working-set KKT system through the bordered
// reduction. A singular Schur complement means the working-set gradients
// are dependent (given the nonsingular base), exactly the condition the
// dense path reports as ErrSingular.
func (s *activeSet) solveKKTSchur(work []int) (x, nu, lam []float64, err error) {
	if s.memoOK && sameWorkSet(s.memoWork, work) {
		s.retX = cloneInto(s.retX, s.memoX)
		s.retNu = cloneInto(s.retNu, s.memoNu)
		s.retLam = cloneInto(s.retLam, s.memoLam)
		return s.retX, s.retNu, s.retLam, nil
	}
	n := s.p.n
	k := s.schur
	mw := len(work)
	u := cloneInto(s.uBuf, s.w0)
	s.uBuf = u
	var lmb []float64
	if mw > 0 {
		wk := s.workKey(work)
		if k.sbad[wk] {
			return nil, nil, nil, mat.ErrSingular
		}
		f := k.sfact[wk]
		if f == nil {
			s.schurBuf = growFloat(s.schurBuf, mw*mw)
			sc, _ := mat.Wrap(mw, mw, s.schurBuf)
			for i := range work {
				for j := i; j < mw; j++ {
					d := s.pairDot(work[i], work[j])
					sc.Set(i, j, d)
					sc.Set(j, i, d)
				}
			}
			var ferr error
			f, ferr = mat.Factor(sc)
			if ferr != nil {
				// A dependent set stays dependent: the Schur entries are
				// fixed for the cache's lifetime.
				if len(k.sbad) >= 1024 {
					clear(k.sbad)
				}
				k.sbad[wk] = true
				return nil, nil, nil, ferr
			}
			size := 8*mw*(mw+1) + len(wk) // LU entries, pivots, key
			if len(k.sfact) >= 1024 || k.sbytes+size > schurCacheBytes {
				clear(k.sfact)
				k.sbytes = 0
			}
			k.sfact[wk] = f
			k.sbytes += size
		}
		rhs := growFloat(s.rhsBuf, mw)
		s.rhsBuf = rhs
		for i, w := range work {
			rhs[i] = s.rhsDot(w) - s.rows[w].h
		}
		lmb, err = f.Solve(rhs)
		if err != nil {
			return nil, nil, nil, err
		}
		for i, w := range work {
			li := lmb[i]
			if li == 0 {
				continue
			}
			ci := s.borderCol(w)
			for t := range u {
				u[t] -= li * ci[t]
			}
		}
	}
	s.memoWork = append(s.memoWork[:0], work...)
	s.memoX = cloneInto(s.memoX, u[:n])
	s.memoNu = cloneInto(s.memoNu, u[n:])
	s.memoLam = cloneInto(s.memoLam, lmb)
	s.memoOK = true
	return u[:n], u[n:], lmb, nil
}

// scanSparsity extracts the Hessian's nonzero pattern (by column) and the
// equality-row nonzero count, once per solve.
func (s *activeSet) scanSparsity() {
	n := s.p.n
	s.hInd = make([][]int, n)
	s.hVal = make([][]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if v := s.p.h.At(i, j); v != 0 {
				s.hInd[j] = append(s.hInd[j], i)
				s.hVal[j] = append(s.hVal[j], v)
				s.hNNZ++
			}
		}
	}
	for _, row := range s.p.aeq {
		for _, v := range row {
			if v != 0 {
				s.aeqNNZ++
			}
		}
	}
}

// solveKKTDense is the original dense assembly and LU solve, kept for small
// or dense systems and as the differential-testing oracle.
func (s *activeSet) solveKKTDense(work []int, rhs []float64) (x, nu, lam []float64, err error) {
	n := s.p.n
	me := len(s.p.aeq)
	dim := len(rhs)
	kkt := mat.New(dim, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			kkt.Set(i, j, s.p.h.At(i, j))
		}
	}
	for e := 0; e < me; e++ {
		for j, v := range s.p.aeq[e] {
			kkt.Set(n+e, j, v)
			kkt.Set(j, n+e, v)
		}
	}
	for k, w := range work {
		r := &s.rows[w]
		if r.g != nil {
			for j, v := range r.g {
				kkt.Set(n+me+k, j, v)
				kkt.Set(j, n+me+k, v)
			}
		} else {
			kkt.Set(n+me+k, r.idx, r.sign)
			kkt.Set(r.idx, n+me+k, r.sign)
		}
	}
	sol, err := mat.Solve(kkt, rhs)
	if err != nil {
		if errors.Is(err, mat.ErrSingular) {
			return nil, nil, nil, err
		}
		return nil, nil, nil, fmt.Errorf("qp: KKT solve: %w", err)
	}
	return sol[:n], sol[n : n+me], sol[n+me:], nil
}

// sameWorkSet reports whether two working sets are identical including
// order (order determines multiplier rows).
func sameWorkSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assemble scatters working-set multipliers back to per-row duals.
func (s *activeSet) assemble(nu, lam []float64) *Solution {
	p := s.p
	sol := &Solution{
		X:         mat.CloneVec(s.x),
		EqDual:    mat.CloneVec(nu),
		IneqDual:  make([]float64, len(p.gin)),
		LowerDual: make([]float64, p.n),
		UpperDual: make([]float64, p.n),
	}
	sol.Working = make([]int64, len(s.work))
	for k, w := range s.work {
		sol.Working[k] = s.keys[w]
		r := &s.rows[w]
		l := lam[k]
		if l < 0 {
			l = 0 // within tolerance of zero
		}
		switch r.kind {
		case kindUser:
			sol.IneqDual[r.idx] = l
		case kindLower:
			sol.LowerDual[r.idx] = l
		case kindUpper:
			sol.UpperDual[r.idx] = l
		}
	}
	hx, _ := p.h.MulVec(sol.X)
	sol.Objective = 0.5*mat.Dot(sol.X, hx) + mat.Dot(p.c, sol.X)
	return sol
}
