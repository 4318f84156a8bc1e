package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/par"
	"github.com/edsec/edattack/internal/telemetry"
)

// ctxErr reports a wrapped context error when ctx is non-nil and done, nil
// otherwise. Every cancellation exit in this package funnels through it so
// errors.Is(err, context.Canceled/DeadlineExceeded) works uniformly.
func ctxErr(ctx context.Context, what string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %s aborted: %w", what, err)
	}
	return nil
}

// betterAttack reports whether a should replace b as the incumbent winner:
// larger gain first, then lower target line, then positive before negative
// direction. The ordering is a total order over distinct (target, dir)
// subproblems, which makes the Algorithm 1 winner independent of the order
// results arrive in.
func betterAttack(a, b *Attack) bool {
	if a.GainPct != b.GainPct {
		return a.GainPct > b.GainPct
	}
	if a.TargetLine != b.TargetLine {
		return a.TargetLine < b.TargetLine
	}
	return a.Direction > b.Direction
}

// FindOptimalAttack implements Algorithm 1 (GetOptimalAttack): it solves the
// 2·|E_D| bilevel subproblems — one per DLR line and flow direction — and
// returns the attack with the largest non-negative percentage capacity
// violation. When no subproblem admits a stealthy feasible manipulation it
// returns ErrNoFeasibleAttack.
//
// The subproblems are independent (the paper's decomposition argument) and
// are fanned over o.Workers goroutines. Every worker publishes realized
// gains to a shared incumbent bound that tightens pruning for all in-flight
// and queued subproblems; the returned attack is nevertheless identical for
// every worker count — see Options.Workers for the contract and
// seedSlackFactor for the argument.
func FindOptimalAttack(k *Knowledge, o Options) (*Attack, error) {
	o = o.withDefaults()
	if err := ctxErr(o.Ctx, "run"); err != nil {
		return nil, err
	}
	if o.hooks.DenseSolver {
		// Run the whole attack — dispatch evaluations included — on the
		// dense engines, without mutating the caller's model.
		// Fresh memo: cached sparse-engine results must not leak into a
		// dense run (the engines agree on attacks, not on every last bit).
		k = &Knowledge{Model: dispatch.DenseClone(k.Model), TrueDLR: k.TrueDLR, memo: newEDMemo()}
	}
	dlrLines := k.Model.Net.DLRLines()
	if len(dlrLines) == 0 {
		return nil, ErrNoDLRLines
	}
	start := time.Now()
	stats := &SolverStats{}
	root := telemetry.StartSpan(o.Tracer, nil, "core.find_optimal_attack")
	root.SetAttr("dlr_lines", len(dlrLines))
	root.SetAttr("subproblems", 2*len(dlrLines))
	root.SetAttr("workers", o.Workers)
	defer root.End()

	// A sequential fan-out (one resolved worker) runs inline on this
	// goroutine, so the incumbent bound drops its atomics.
	inc := &incumbentBound{seq: par.Resolve(o.Workers, 2*len(dlrLines)) == 1}

	// Warm start (before the fan-out): the greedy vertex attack gives a
	// realized, achievable gain that prunes every subproblem that cannot
	// beat it.
	var best *Attack
	seedSpan := telemetry.StartSpan(nil, root, "core.greedy_seed")
	grd, err := greedyVertexAttack(k, o)
	if err == nil {
		best = grd // Exact stays false: a seed, not a proven optimum
		inc.Offer(grd.GainPct)
		o.Flight.Record(telemetry.FlightEvent{
			Kind:      telemetry.FlightIncumbent,
			Target:    grd.TargetLine,
			Dir:       grd.Direction,
			Incumbent: grd.GainPct,
			Label:     "seed",
		})
		seedSpan.SetAttr("gain_pct", grd.GainPct)
	} else if !errors.Is(err, ErrNoFeasibleAttack) {
		seedSpan.End()
		return nil, fmt.Errorf("core: greedy seeding: %w", err)
	}
	seedSpan.End()

	// Shared solve-invariant scaffolding, built once on the caller's model
	// (its dispatch warm start is the one mutation, and it happens before
	// any worker exists).
	pre := precompute(k, o)

	// Fan out. Results land in per-task slots; the merge below runs in
	// fixed task order.
	type task struct{ line, dir int }
	tasks := make([]task, 0, 2*len(dlrLines))
	for _, li := range dlrLines {
		tasks = append(tasks, task{li, 1}, task{li, -1})
	}
	atts := make([]*Attack, len(tasks))
	substats := make([]*SolverStats, len(tasks))
	errs := eachTask(k, o, len(tasks), "subproblem fan-out", func(i int, kw *Knowledge, ot Options) error {
		att, st, err := solveSubproblemSeeded(kw, tasks[i].line, tasks[i].dir, ot, inc, pre, root)
		// Publish only positive gains. A zero-gain result (a clamped
		// non-violating optimum) prunes nothing a sibling could not already
		// rule out, but publishing it mid-flight would SET an otherwise
		// empty bound at a schedule-dependent instant — and a node-budget-
		// truncated sibling search would then freeze different equal-gain
		// incumbents under different worker timings. Pre-fan-out offers
		// (the greedy seed) are deterministic and stay unconditional.
		if err == nil && att != nil && att.GainPct > 0 {
			inc.Offer(att.GainPct)
			o.Flight.Record(telemetry.FlightEvent{
				Kind:      telemetry.FlightIncumbent,
				Target:    tasks[i].line,
				Dir:       tasks[i].dir,
				Incumbent: att.GainPct,
				Label:     "shared",
			})
		}
		atts[i], substats[i] = att, st
		return err
	})

	anyFeasible := best != nil
	totalNodes := 0
	exact := true
	for i, t := range tasks {
		att, err := atts[i], errs[i]
		if errors.Is(err, ErrNoFeasibleAttack) {
			stats.add(substats[i])
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("core: Algorithm 1 at line %d dir %+d: %w", t.line, t.dir, err)
		}
		if att == nil {
			// No attack from this subproblem: a pruning proof (counted in
			// the stats block), or a truncated empty search — which proved
			// nothing, so the winner's optimality claim must not survive it.
			stats.add(substats[i])
			if st := substats[i]; st != nil && st.Truncated > 0 {
				exact = false
			}
			continue
		}
		anyFeasible = true
		totalNodes += att.Nodes
		exact = exact && att.Exact
		stats.add(att.Stats)
		if best == nil || betterAttack(att, best) {
			best = att
		}
	}
	if !anyFeasible || best == nil {
		return nil, ErrNoFeasibleAttack
	}
	// A context that expires anywhere in the run must surface as an error,
	// never as a result: the rich polish below stops early under a done
	// context, and a half-polished winner would differ from the canonical
	// attack. (Mid-fan-out cancellations were already caught per task.)
	if err := ctxErr(o.Ctx, "run"); err != nil {
		return nil, err
	}
	// Rich refinement: one deeper deterministic polish of the single winner
	// (wider candidate set than the per-subproblem dives — paying it 2·|E_D|
	// times would dominate the run). The winner and its raw ratings are
	// already schedule-independent, so the refined attack is too. Strict
	// improvement only, so a no-op polish leaves the merge result
	// bit-identical.
	if !o.hooks.NoDive && best.GainPct > 0 {
		raw := best.rawDLR
		if raw == nil {
			raw = best.DLR
		}
		// The only error is a done context, which skips the polish and
		// which the final context check reports.
		_ = eachTask(k, o, 1, "winner polish", func(_ int, kw *Knowledge, ot Options) error {
			sp := newSubproblem(kw, best.TargetLine, float64(best.Direction), pre.monitored, ot, pre)
			if rg, rdlr, rres, ok := sp.polish(raw, true); ok {
				if rg = quantize(rg, gainQuantum); rg > best.GainPct {
					nb := *best
					nb.GainPct = rg
					nb.DLR = canonicalDLR(kw, rdlr, rres.Flows)
					nb.rawDLR = rdlr
					nb.PredictedP = rres.P
					nb.PredictedFlows = rres.Flows
					nb.PredictedCost = kw.Model.Cost(rres.P)
					best = &nb
				}
			}
			return nil
		})
	}
	best.Nodes = totalNodes
	best.Exact = exact
	stats.WallTime = time.Since(start)
	// Settle the aggregate bound against the winner: exact runs are their
	// own bound; truncated runs report the worst surviving subproblem bound
	// and the gap it leaves above the winning gain.
	if exact {
		stats.BestBoundPct = best.GainPct
		stats.Gap = 0
	} else if !math.IsInf(stats.BestBoundPct, 1) {
		if stats.BestBoundPct < best.GainPct {
			stats.BestBoundPct = best.GainPct
		}
		stats.Gap = (stats.BestBoundPct - best.GainPct) / (1 + best.GainPct)
	}
	best.Stats = stats
	root.SetAttr("gain_pct", best.GainPct)
	root.SetAttr("target", best.TargetLine)
	root.SetAttr("nodes", stats.Nodes)
	resultLabel := "optimal"
	if !best.Exact {
		resultLabel = "truncated"
	}
	o.Flight.Record(telemetry.FlightEvent{
		Kind:      telemetry.FlightAttack,
		Target:    best.TargetLine,
		Dir:       best.Direction,
		Incumbent: best.GainPct,
		DurUS:     stats.WallTime.Microseconds(),
		Label:     resultLabel,
	})
	if err := ctxErr(o.Ctx, "run"); err != nil {
		// The context fired during the winner's rich polish: the polish
		// stopped at an arbitrary candidate, so the refined attack is not
		// the canonical one. Error out rather than return it.
		return nil, err
	}
	return best, nil
}

// GreedyVertexAttack is the heuristic baseline suggested by the structure of
// the paper's Table I optimum: to overload a target DLR line, raise its
// manipulated rating to the band maximum and choke every other DLR line to
// the band minimum, forcing flow onto the target. It evaluates all 2·|E_D|
// vertex candidates through the operator's actual dispatch and keeps the
// best stealthy-feasible one.
func GreedyVertexAttack(k *Knowledge) (*Attack, error) {
	return greedyVertexAttack(k, Options{})
}

// greedyVertexAttack scores the vertex candidates over o.Workers goroutines,
// checking o.Ctx per candidate.
func greedyVertexAttack(k *Knowledge, o Options) (*Attack, error) {
	dlrLines := k.Model.Net.DLRLines()
	if len(dlrLines) == 0 {
		return nil, ErrNoDLRLines
	}
	dlrs := make([]map[int]float64, len(dlrLines))
	for i, target := range dlrLines {
		dlrs[i] = vertexDLR(k.Model.Net, dlrLines, target)
	}
	return bestOf(k, o, "greedy", dlrs)
}

// vertexDLR is the greedy vertex toward target: its rating at the band
// maximum, every other DLR line at the band minimum.
func vertexDLR(net *grid.Network, dlrLines []int, target int) map[int]float64 {
	dlr := make(map[int]float64, len(dlrLines))
	for _, li := range dlrLines {
		if li == target {
			dlr[li] = net.Lines[li].DLRMax
		} else {
			dlr[li] = net.Lines[li].DLRMin
		}
	}
	return dlr
}

// RandomAttack samples manipulations uniformly from the plausibility box and
// keeps the best stealthy-feasible one — the weakest baseline, quantifying
// how much the physics-aware optimization buys the attacker.
func RandomAttack(k *Knowledge, samples int, seed int64) (*Attack, error) {
	return randomAttack(k, samples, seed, Options{})
}

// randomAttack draws every sample from the seeded rng up front — so the
// sample sequence is a pure function of the seed regardless of worker count
// — then scores them over o.Workers goroutines.
func randomAttack(k *Knowledge, samples int, seed int64, o Options) (*Attack, error) {
	net := k.Model.Net
	dlrLines := net.DLRLines()
	if len(dlrLines) == 0 {
		return nil, ErrNoDLRLines
	}
	if samples <= 0 {
		samples = 50
	}
	rng := rand.New(rand.NewSource(seed))
	dlrs := make([]map[int]float64, samples)
	for s := range dlrs {
		dlr := make(map[int]float64, len(dlrLines))
		for _, li := range dlrLines {
			l := &net.Lines[li]
			dlr[li] = l.DLRMin + (l.DLRMax-l.DLRMin)*rng.Float64()
		}
		dlrs[s] = dlr
	}
	return bestOf(k, o, "random", dlrs)
}

// bestOf scores candidate rating vectors through the operator's dispatch
// and returns the stealthy-feasible one with the largest realized gain. The
// first such candidate wins ties and the merge runs in candidate order, so
// the result matches the sequential sweep for every worker count.
func bestOf(k *Knowledge, o Options, what string, dlrs []map[int]float64) (*Attack, error) {
	cands := make([]*Attack, len(dlrs))
	errs := eachTask(k, o, len(dlrs), what+" candidate", func(i int, kw *Knowledge, _ Options) error {
		ev, err := kw.EvaluateAttack(dlrs[i])
		if err != nil {
			return fmt.Errorf("core: %s candidate %d: %w", what, i, err)
		}
		if ev.Feasible {
			cands[i] = ev.attack(dlrs[i])
		}
		return nil
	})
	var best *Attack
	for i, c := range cands {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if c != nil && (best == nil || c.GainPct > best.GainPct) {
			best = c
		}
	}
	if best == nil {
		return nil, ErrNoFeasibleAttack
	}
	return best, nil
}

// SortedDLRLines returns the DLR line indices sorted by true rating, a
// convenience for deterministic reporting.
func SortedDLRLines(k *Knowledge) []int {
	out := k.Model.Net.DLRLines()
	sort.Slice(out, func(a, b int) bool { return k.TrueDLR[out[a]] < k.TrueDLR[out[b]] })
	return out
}
