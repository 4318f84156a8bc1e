package qp

import "github.com/edsec/edattack/internal/lp"

// qpScratch is the QP layer's slot in an lp.Workspace: every per-solve
// allocation of the active-set iteration — the folded inequality row list,
// the working set, the Schur right-hand-side vectors, the KKT-solution memo
// and its hand-out buffers, the step direction, and candidate working sets —
// lives here and is reused across solves. The cross-solve kktSchur itself
// (base LU, border columns, Schur factorizations) belongs to the KKTCache,
// not the scratch: it is shared by every solve of the structural family and
// must never be reset per solve.
//
// The activeSet struct embedded here is reused too, so a workspace-carrying
// steady-state solve allocates nothing for the iteration driver itself.
type qpScratch struct {
	as activeSet

	rows      []ineqRow
	work      []int
	keys      []int64
	slots     []int32
	rowOf     map[int64]int32
	seedRows  []int
	w0        []float64
	rw0       []float64
	rw0ok     []bool
	keyBuf    []byte
	memoWork  []int
	memoX     []float64
	memoNu    []float64
	memoLam   []float64
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

// scratchFrom returns the workspace's QP scratch, creating it on first use;
// nil workspace means no pooling.
func scratchFrom(ws *lp.Workspace) *qpScratch {
	if ws == nil {
		return nil
	}
	if s, ok := ws.QP.(*qpScratch); ok {
		return s
	}
	s := &qpScratch{}
	ws.QP = s
	return s
}

// attach resets the embedded activeSet for a new solve and hands it the
// scratch-backed buffers (all length zero; growth reuses prior capacity).
func (sc *qpScratch) attach(p *Problem, rows []ineqRow, x []float64, opts Options) *activeSet {
	s := &sc.as
	*s = activeSet{p: p, rows: rows, x: x, opts: opts}
	s.work = sc.work[:0]
	s.keys = sc.keys[:0]
	s.slots = sc.slots[:0]
	s.rowOf = sc.rowOf
	s.seedRows = sc.seedRows[:0]
	s.w0 = sc.w0[:0]
	s.rw0 = sc.rw0[:0]
	s.rw0ok = sc.rw0ok[:0]
	s.keyBuf = sc.keyBuf[:0]
	s.memoWork = sc.memoWork[:0]
	s.memoX = sc.memoX[:0]
	s.memoNu = sc.memoNu[:0]
	s.memoLam = sc.memoLam[:0]
	s.uBuf = sc.uBuf[:0]
	s.rhsBuf = sc.rhsBuf[:0]
	s.retX = sc.retX[:0]
	s.retNu = sc.retNu[:0]
	s.retLam = sc.retLam[:0]
	s.dBuf = sc.dBuf[:0]
	s.schurBuf = sc.schurBuf[:0]
	s.inWorkBuf = sc.inWorkBuf[:0]
	s.cand = sc.cand[:0]
	return s
}

// reclaim takes the (possibly grown) buffers back after a solve so the next
// attach starts from the largest capacity seen.
func (sc *qpScratch) reclaim(s *activeSet) {
	sc.rows = s.rows[:0]
	sc.work = s.work[:0]
	sc.keys = s.keys[:0]
	sc.slots = s.slots[:0]
	sc.rowOf = s.rowOf
	sc.seedRows = s.seedRows[:0]
	sc.w0 = s.w0[:0]
	sc.rw0 = s.rw0[:0]
	sc.rw0ok = s.rw0ok[:0]
	sc.keyBuf = s.keyBuf[:0]
	sc.memoWork = s.memoWork[:0]
	sc.memoX = s.memoX[:0]
	sc.memoNu = s.memoNu[:0]
	sc.memoLam = s.memoLam[:0]
	sc.uBuf = s.uBuf[:0]
	sc.rhsBuf = s.rhsBuf[:0]
	sc.retX = s.retX[:0]
	sc.retNu = s.retNu[:0]
	sc.retLam = s.retLam[:0]
	sc.dBuf = s.dBuf[:0]
	sc.schurBuf = s.schurBuf[:0]
	sc.inWorkBuf = s.inWorkBuf[:0]
	sc.cand = s.cand[:0]
}

// cloneInto copies src into dst, reallocating only when dst's capacity is
// insufficient; with a nil dst it behaves exactly like mat.CloneVec.
func cloneInto(dst, src []float64) []float64 {
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	} else {
		dst = dst[:len(src)]
	}
	copy(dst, src)
	return dst
}

// growFloat/growBool/growInt32/growInt64 reslice to length n, reallocating only when
// capacity is insufficient; contents are unspecified (callers write or clear).
func growFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}
