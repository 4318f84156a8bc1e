package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"github.com/edsec/edattack"
	"github.com/edsec/edattack/internal/dispatch"
)

// attackSpec is one closed-loop attack workload: one caller, Workers=1,
// each seeded true-DLR vector attacked cold on a fresh Knowledge and then
// repeated warm on the same Knowledge with an AttackWarmCache.
type attackSpec struct {
	caseName string
	opts     edattack.AttackOptions
	// tracedVectors is the fixed number of vectors a traced run attacks,
	// so its work counters repeat exactly for a given seed.
	tracedVectors int
	// warmRepeats is how many warm repeats follow each cold attack; a
	// workload whose run holds a single vector repeats several times and
	// reports their median.
	warmRepeats int
	// band is the share of each DLR line's plausibility band, around its
	// static rating, that true ratings are drawn from.
	band float64
	// exact marks a workload whose attacks must close to proven
	// optimality.
	exact bool
}

// fullPipeline is the production MILP configuration: presolve, cuts,
// pseudo-cost branching, hybrid node order, dive/polish on.
func fullPipeline() edattack.AttackOptions {
	return edattack.AttackOptions{
		NodeOrder:  edattack.OrderHybrid,
		Presolve:   true,
		Cuts:       true,
		PseudoCost: true,
		Workers:    1,
	}
}

// attack118Spec runs case118 at the budget the MILP gate uses for it
// (MaxNodes 40, RelGap 1e-3). A run holds one vector, so the run-to-run
// spread is the vector-to-vector spread: true ratings come from the 5% of
// each band around the static rating, where the cold wall varied by ±4%
// and the warm repeat by ±10% between vectors, against 25–35 s and
// 0.5–0.9 s over whole bands.
var attack118Spec = func() attackSpec {
	o := fullPipeline()
	o.MaxNodes = 40
	o.RelGap = 1e-3
	return attackSpec{caseName: "case118", opts: o, tracedVectors: 1, warmRepeats: 5, band: 0.05}
}()

// attackExactSpec runs case30 unbudgeted, to proven optimality.
var attackExactSpec = attackSpec{caseName: "case30", opts: fullPipeline(), tracedVectors: 40, warmRepeats: 1, band: 1, exact: true}

const (
	probeVectors  = 5 // attack-exact vectors in serve-screen's traced run
	setupRepeats  = 101
	replaySolves  = 1000
	certTolerance = 1e-4 // percentage points
)

// attackSetup is one set-up: case load, dispatch-model build, attacker
// knowledge at the static ratings and its first dispatch solve.
func attackSetup(caseName string) (*edattack.DispatchModel, time.Duration, error) {
	start := time.Now()
	net, err := edattack.LoadCase(caseName)
	if err != nil {
		return nil, 0, err
	}
	model, err := edattack.NewDispatchModel(net)
	if err != nil {
		return nil, 0, err
	}
	static := map[int]float64{}
	for _, li := range net.DLRLines() {
		static[li] = net.Lines[li].RateMVA
	}
	k, err := edattack.NewKnowledge(model, static)
	if err != nil {
		return nil, 0, err
	}
	if _, err := edattack.EvaluateAttack(k, static); err != nil {
		return nil, 0, err
	}
	return model, time.Since(start), nil
}

// vectorStream draws rating vectors for a network's DLR lines, one
// coordinate per line in its plausibility band. The points are a Halton
// sequence shifted by a seeded random offset per coordinate
// (Cranley–Patterson rotation): every seed gives different vectors, and any
// prefix of the stream covers the band evenly, so the few hundred vectors a
// run holds sample the input space the same way from seed to seed.
type vectorStream struct {
	lines []int
	lo    []float64
	width []float64
	shift []float64
	i     int
}

var haltonBases = []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// newVectorStream draws from the share band of each line's plausibility
// band around its static rating: 1 is the whole band, 0.05 the 5% on
// either side of the static rating.
func newVectorStream(net *edattack.Network, band float64, rng *rand.Rand) (*vectorStream, error) {
	s := &vectorStream{lines: net.DLRLines()}
	if len(s.lines) > len(haltonBases) {
		return nil, fmt.Errorf("%d DLR lines, at most %d supported", len(s.lines), len(haltonBases))
	}
	for _, li := range s.lines {
		l := &net.Lines[li]
		lo := l.RateMVA - band*(l.RateMVA-l.DLRMin)
		hi := l.RateMVA + band*(l.DLRMax-l.RateMVA)
		s.lo = append(s.lo, lo)
		s.width = append(s.width, hi-lo)
		s.shift = append(s.shift, rng.Float64())
	}
	return s, nil
}

// next returns the next vector: DLR line index → rating.
func (s *vectorStream) next() map[int]float64 {
	s.i++
	v := make(map[int]float64, len(s.lines))
	for d, li := range s.lines {
		u := radicalInverse(s.i, haltonBases[d]) + s.shift[d]
		v[li] = s.lo[d] + (u-math.Floor(u))*s.width[d]
	}
	return v
}

// radicalInverse mirrors the base-b digits of i about the radix point.
func radicalInverse(i, b int) float64 {
	x, f := 0.0, 1.0/float64(b)
	for ; i > 0; i /= b {
		x += float64(i%b) * f
		f /= float64(b)
	}
	return x
}

// vectorRun is one vector's cold attack and its warm repeats.
type vectorRun struct {
	ud       map[int]float64
	cold     *edattack.Attack
	coldErr  error
	coldDur  time.Duration
	coldMem  memDelta // allocation work of the cold attack
	warm     []*edattack.Attack
	warmErrs []error
	warmDurs []time.Duration
}

// warmMS is the median warm repeat in ms.
func (v *vectorRun) warmMS() float64 {
	xs := make([]float64, len(v.warmDurs))
	for i, d := range v.warmDurs {
		xs[i] = ms(d)
	}
	return median(xs)
}

// attackVector attacks one vector cold on a fresh Knowledge, then repeats
// it warm. Metrics and spans are attached only when the registries and
// log are non-nil.
func attackVector(model *edattack.DispatchModel, ud map[int]float64, opts edattack.AttackOptions, warmRepeats int,
	coldReg, warmReg *edattack.MetricsRegistry, spans *spanLog) (vectorRun, error) {
	v := vectorRun{ud: ud}
	k, err := edattack.NewKnowledge(model, ud)
	if err != nil {
		return v, err
	}
	o := opts
	o.Warm = edattack.NewAttackWarmCache()
	if spans != nil {
		o.Tracer = spans.tracer
	}

	o.Metrics = coldReg
	m0 := readMem()
	sp := spans.start("bench.attack", "phase", "cold")
	t0 := time.Now()
	v.cold, v.coldErr = edattack.FindOptimalAttack(k, o)
	v.coldDur = time.Since(t0)
	sp.End()
	v.coldMem = readMem().since(m0)

	o.Metrics = warmReg
	for i := 0; i < warmRepeats; i++ {
		sp = spans.start("bench.attack", "phase", "warm")
		t0 = time.Now()
		att, err := edattack.FindOptimalAttack(k, o)
		v.warmDurs = append(v.warmDurs, time.Since(t0))
		sp.End()
		v.warm, v.warmErrs = append(v.warm, att), append(v.warmErrs, err)
	}
	return v, nil
}

// checkVector runs the output checks on one vector and records failures
// by check name. It returns the re-certification gain delta in
// percentage points (NaN when the cold attack failed).
func checkVector(r *report, caseName string, v vectorRun, exact bool) (float64, error) {
	c := v.cold
	for i, w := range v.warm {
		switch {
		case v.coldErr != nil || v.warmErrs[i] != nil:
			if !errors.Is(v.coldErr, edattack.ErrNoFeasibleAttack) || !errors.Is(v.warmErrs[i], edattack.ErrNoFeasibleAttack) {
				r.fail("warm_equals_cold")
			}
		case c.GainPct != w.GainPct || c.TargetLine != w.TargetLine || c.Direction != w.Direction || !reflect.DeepEqual(c.DLR, w.DLR):
			r.fail("warm_equals_cold")
		}
	}
	if v.coldErr != nil {
		if !errors.Is(v.coldErr, edattack.ErrNoFeasibleAttack) {
			r.failed++
		}
		return math.NaN(), nil
	}

	// Re-certify from outside: a fresh model and Knowledge, no memo, warm
	// state or pooled workspace shared with the attack.
	net, err := edattack.LoadCase(caseName)
	if err != nil {
		return 0, err
	}
	model, err := edattack.NewDispatchModel(net)
	if err != nil {
		return 0, err
	}
	k, err := edattack.NewKnowledge(model, v.ud)
	if err != nil {
		return 0, err
	}
	ev, err := edattack.EvaluateAttack(k, c.DLR)
	delta := math.Inf(1)
	if err == nil && ev.Feasible {
		delta = math.Abs(ev.GainPct - c.GainPct)
	}
	if delta > certTolerance {
		r.fail("recertify")
	}

	if c.Stats == nil || c.Stats.BestBoundPct < c.GainPct {
		r.fail("bound_ge_gain")
	}
	if exact {
		if !c.Exact {
			r.fail("exact")
		}
		if g, err := edattack.GreedyAttack(k); err == nil && c.GainPct < g.GainPct {
			r.fail("gain_ge_greedy")
		}
	}
	return delta, nil
}

// runAttack is the attack workload. Untraced, it attacks seeded vectors
// until the time budget is spent (at least one). Traced, it runs the serve
// probe, then tracedAttacks on a fixed number of vectors, then the direct
// dispatch replay.
func runAttack(c runConfig, spec attackSpec) (*report, error) {
	r := &report{}
	var model *edattack.DispatchModel
	for i := 0; i < setupRepeats; i++ {
		m, d, err := attackSetup(spec.caseName)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		model = m
		r.setup = append(r.setup, d.Seconds())
	}
	vectors, err := newVectorStream(model.Net, spec.band, rand.New(rand.NewSource(c.seed)))
	if err != nil {
		return nil, err
	}

	if !c.trace {
		// Start another vector only while it is expected to finish inside
		// the budget, so a run of slow vectors does not overrun it.
		start := time.Now()
		deadline := start.Add(time.Duration(c.seconds * float64(time.Second)))
		certMax := 0.0
		for i := 0; i == 0 || time.Now().Add(time.Since(start)/time.Duration(i)).Before(deadline); i++ {
			v, err := attackVector(model, vectors.next(), spec.opts, spec.warmRepeats, nil, nil, nil)
			if err != nil {
				return nil, err
			}
			r.attempted += 1 + len(v.warm)
			r.primary = append(r.primary, ms(v.coldDur))
			r.secondary = append(r.secondary, v.warmMS())
			d, err := checkVector(r, spec.caseName, v, spec.exact)
			if err != nil {
				return nil, err
			}
			if !math.IsNaN(d) {
				certMax = math.Max(certMax, d)
			}
		}
		r.add("setup_s", "s", median(r.setup))
		cold := scale(r.primary, 1e-3)
		r.addTiming("attack_cold", "s", 0.95, cold)
		r.add("attack_warm_p50_s", "s", median(scale(r.secondary, 1e-3)))
		r.add("core.cert_delta_max_pp", "pp", certMax)
		return r, nil
	}

	spans := newSpanLog()
	if err := serveProbe(r, c.seed, spans); err != nil {
		return nil, err
	}
	if err := tracedAttacks(r, spec, model, vectors, spec.tracedVectors, spans); err != nil {
		return nil, err
	}
	if err := replayDispatch(r, spec.caseName, c.seed, spans); err != nil {
		return nil, err
	}
	self, err := spans.finish(c.spans, c.label)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	r.noteSelfTimes(self)
	return r, nil
}

// tracedAttacks attacks n vectors from the stream with the program's
// metrics and tracer attached, pairing each traced cold attack with an
// untraced one of the same vector on a fresh Knowledge, and records the
// core, milp, lp and runtime layer metrics and the tracing overhead.
func tracedAttacks(r *report, spec attackSpec, model *edattack.DispatchModel, vectors *vectorStream, n int, spans *spanLog) error {
	coldReg, warmReg := edattack.NewMetricsRegistry(), edattack.NewMetricsRegistry()
	var plainCold, tracedCold, tracedWarm time.Duration
	var plainMem memDelta
	certMax := 0.0
	for i := 0; i < n; i++ {
		ud := vectors.next()
		// Alternate which of the pair runs first so neither always
		// inherits the other's warmed process state.
		var plain, traced vectorRun
		var err error
		for j := 0; j < 2; j++ {
			if (i+j)%2 == 0 {
				plain, err = attackVector(model, ud, spec.opts, spec.warmRepeats, nil, nil, nil)
				plainMem = addMem(plainMem, plain.coldMem)
			} else {
				traced, err = attackVector(model, ud, spec.opts, spec.warmRepeats, coldReg, warmReg, spans)
			}
			if err != nil {
				return err
			}
		}
		r.attempted += 2 * (1 + spec.warmRepeats)
		plainCold += plain.coldDur
		tracedCold += traced.coldDur
		tracedWarm += time.Duration(traced.warmMS() * float64(time.Millisecond))
		for _, v := range []vectorRun{plain, traced} {
			d, err := checkVector(r, spec.caseName, v, spec.exact)
			if err != nil {
				return err
			}
			if !math.IsNaN(d) {
				certMax = math.Max(certMax, d)
			}
		}
		if plain.cold != nil && traced.cold != nil && !reflect.DeepEqual(plain.cold.DLR, traced.cold.DLR) {
			r.fail("traced_equals_untraced")
		}
	}

	cs, ws := coldReg.Snapshot(), warmReg.Snapshot()
	nf := float64(n)
	rounds := histSum(cs, "core_rowgen_round_seconds")
	wall := tracedCold.Seconds()
	r.setLayers(map[string]float64{
		"core.rounds_s":         rounds,
		"core.outside_rounds_s": wall - rounds,
		"core.dive_share":       ratio(wall-rounds, wall),
		"core.subproblems":      float64(cs.Counters["core_subproblems_total"]),
		"core.pruned":           float64(cs.Counters["core_subproblems_pruned_total"]),
		"core.truncated":        float64(cs.Counters["core_subproblems_truncated_total"]),
		// Every round lands in the round-time histogram; the rounds counter
		// skips subproblems that end pruned or truncated.
		"core.rounds":            float64(cs.Histograms["core_rowgen_round_seconds"].Count),
		"core.warm_speedup":      ratio(tracedCold.Seconds(), tracedWarm.Seconds()),
		"core.cert_delta_max_pp": certMax,
		"milp.nodes":             float64(cs.Counters["milp_nodes_total"]),
		"milp.node_s":            histSum(cs, "milp_node_seconds"),
		"milp.pruned":            float64(cs.Counters["milp_pruned_total"]),
		"milp.incumbents":        float64(cs.Counters["milp_incumbents_total"]),
		"milp.presolve_bounds":   float64(cs.Counters["milp_presolve_bounds_total"]),
		"milp.cuts":              float64(cs.Counters["milp_cuts_total"]),
		"lp.solves":              float64(cs.Counters["lp_solves_total"]),
		"lp.pivots":              float64(cs.Counters["lp_pivots_total"]),
		"lp.solve_s":             histSum(cs, "lp_solve_seconds"),
		"lp.warm_hit":            ratio(float64(cs.Counters["lp_warm_solves_total"]), float64(cs.Counters["lp_solves_total"])),
		"lp.refactorizations":    float64(cs.Counters["lp_refactorizations_total"]),
		"lp.ftran":               float64(cs.Counters["lp_ftran_total"]),
		"lp.btran":               float64(cs.Counters["lp_btran_total"]),
		"go.mallocs_per_attack":  float64(plainMem.mallocs) / nf,
		"go.alloc_mb_per_attack": float64(plainMem.bytes) / nf / (1 << 20),
		"go.gc_cycles":           float64(plainMem.gc),
		"bench.trace_overhead":   ratio(tracedCold.Seconds(), plainCold.Seconds()),
	})
	r.add("warm_repeat.lp.warm_hit", "ratio",
		ratio(float64(ws.Counters["lp_warm_solves_total"]), float64(ws.Counters["lp_solves_total"])))
	r.add("warm_repeat.lp.solve_s", "s", histSum(ws, "lp_solve_seconds"))
	r.add("traced.attack_cold_sum_s", "s", tracedCold.Seconds())
	r.add("untraced.attack_cold_sum_s", "s", plainCold.Seconds())

	return nil
}

// attackProbe gives serve-screen's traced run readings of the core, milp
// and lp layers it does not drive itself: a few attack-exact vectors.
func attackProbe(r *report, seed int64, spans *spanLog) error {
	model, _, err := attackSetup(attackExactSpec.caseName)
	if err != nil {
		return err
	}
	vectors, err := newVectorStream(model.Net, attackExactSpec.band, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	if err := tracedAttacks(r, attackExactSpec, model, vectors, probeVectors, spans); err != nil {
		return fmt.Errorf("attack probe: %w", err)
	}
	r.note("core, milp, lp and per-attack runtime layers read from the attack probe: %d attack-exact vectors", probeVectors)
	return nil
}

// replayDispatch times dispatch.Model.Solve directly — no attack memo — on
// a seeded replay of in-band manipulated rating vectors, and records the
// dispatch/qp layer metrics. An infeasible dispatch is a valid answer; a
// feasible one must balance demand and respect every rating.
func replayDispatch(r *report, caseName string, seed int64, spans *spanLog) error {
	net, err := edattack.LoadCase(caseName)
	if err != nil {
		return err
	}
	model, err := edattack.NewDispatchModel(net)
	if err != nil {
		return err
	}
	vectors, err := newVectorStream(net, 1, rand.New(rand.NewSource(seed^0x5eed)))
	if err != nil {
		return err
	}
	var times []float64
	iters, rounds, feasible := 0, 0, 0
	for i := 0; i < replaySolves; i++ {
		ratings := net.Ratings(vectors.next())
		sp := spans.start("bench.dispatch_solve", "case", caseName)
		t0 := time.Now()
		res, err := model.Solve(ratings)
		times = append(times, ms(time.Since(t0)))
		sp.End()
		r.attempted++
		if errors.Is(err, dispatch.ErrInfeasible) {
			continue
		}
		if err != nil {
			r.failed++
			continue
		}
		feasible++
		iters += res.Iterations
		rounds += res.Rounds
		if !dispatchValid(model, res, ratings) {
			r.fail("dispatch_valid")
		}
	}
	r.setLayers(map[string]float64{
		"dispatch.solve_ms_p50": median(times),
		"dispatch.solve_ms_p99": quantile(times, 0.99),
		"qp.iterations_mean":    ratio(float64(iters), float64(feasible)),
		"qp.rounds_mean":        ratio(float64(rounds), float64(feasible)),
	})
	r.add("dispatch.replay_feasible_share", "ratio", float64(feasible)/replaySolves)
	return nil
}

// dispatchValid checks a dispatch serves the demand within generator
// limits and loads no line past its rating.
func dispatchValid(m *edattack.DispatchModel, res *edattack.DispatchResult, ratings []float64) bool {
	const tol = 1e-4
	total := 0.0
	for gi, p := range res.P {
		g := &m.Net.Gens[gi]
		if p < g.Pmin-tol || p > g.Pmax+tol {
			return false
		}
		total += p
	}
	if math.Abs(total-m.Demand) > tol*math.Max(1, m.Demand) {
		return false
	}
	for li, f := range res.Flows {
		if ratings[li] > 0 && math.Abs(f) > ratings[li]*(1+tol)+tol {
			return false
		}
	}
	return true
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func addMem(a, b memDelta) memDelta {
	return memDelta{a.mallocs + b.mallocs, a.bytes + b.bytes, a.gc + b.gc}
}
