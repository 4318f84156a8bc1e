package edattack_test

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	edattack "github.com/edsec/edattack"
	"github.com/edsec/edattack/internal/core"
)

// warmGateOpts is the budgeted configuration shared by the regression gate
// and the BENCH_solver.json recorder. It pins the dense tableau engine: the
// recorded pivot totals are trajectories of that engine (which remains the
// differential oracle for the sparse revised simplex), and under a
// truncating node budget the two engines legitimately explore different
// trees. The sparse engine has its own gate in sparse_gate_test.go. The
// NoDive hook keeps the gate on the branch-and-bound machinery itself: the
// dive/polish discovery layer solves true dispatches rather than KKT
// relaxations, so it would dilute the warm-start signal these gates exist to
// measure.
func warmGateOpts() edattack.AttackOptions {
	return core.WithHooks(edattack.AttackOptions{MaxNodes: 40, RelGap: 1e-3},
		core.Hooks{DenseSolver: true, NoDive: true})
}

// coldGateOpts is warmGateOpts with simplex basis reuse switched off.
func coldGateOpts() edattack.AttackOptions {
	return core.WithHooks(edattack.AttackOptions{MaxNodes: 40, RelGap: 1e-3},
		core.Hooks{DenseSolver: true, NoDive: true, NoWarmStart: true})
}

// sameAttack reports whether two attacks are bit-identical where it matters:
// target, direction, gain, and every manipulated rating.
func sameAttack(t *testing.T, label string, a, b *edattack.Attack) {
	t.Helper()
	if a.TargetLine != b.TargetLine || a.Direction != b.Direction {
		t.Errorf("%s: target/direction (%d,%+d) vs (%d,%+d)",
			label, a.TargetLine, a.Direction, b.TargetLine, b.Direction)
	}
	if a.GainPct != b.GainPct {
		t.Errorf("%s: gain %.17g vs %.17g", label, a.GainPct, b.GainPct)
	}
	if len(a.DLR) != len(b.DLR) {
		t.Errorf("%s: DLR vector sizes %d vs %d", label, len(a.DLR), len(b.DLR))
		return
	}
	lines := make([]int, 0, len(a.DLR))
	for li := range a.DLR {
		lines = append(lines, li)
	}
	sort.Ints(lines)
	for _, li := range lines {
		av, bv := a.DLR[li], b.DLR[li]
		if av != bv {
			t.Errorf("%s: DLR[%d] = %.17g vs %.17g", label, li, av, bv)
		}
	}
}

// TestWarmStartIdenticalAttacks is the warm-start correctness gate on
// case9/case30/case57. Two invariants:
//
//   - Within each mode (warm on, warm off), the attack is bit-identical at
//     one worker and at four — warm starting must not break PR 2's
//     worker-count independence.
//   - Across modes, the target line, direction, and gain are bit-identical.
//     The manipulated-rating vector itself may land on an alternate optimal
//     vertex (the warm path reaches the optimum through a different pivot
//     sequence), so it is compared only within a mode.
func TestWarmStartIdenticalAttacks(t *testing.T) {
	for _, name := range []string{"case9", "case30", "case57"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k := knowledgeCase(t, name)
			solve := func(cold bool, workers int) *edattack.Attack {
				o := warmGateOpts()
				if cold {
					o = coldGateOpts()
				}
				o.Workers = workers
				att, err := edattack.FindOptimalAttack(k, o)
				if err != nil {
					t.Fatalf("cold=%v workers=%d: %v", cold, workers, err)
				}
				return att
			}
			warm1, warm4 := solve(false, 1), solve(false, 4)
			cold1, cold4 := solve(true, 1), solve(true, 4)
			sameAttack(t, name+"/warm w1-vs-w4", warm1, warm4)
			sameAttack(t, name+"/cold w1-vs-w4", cold1, cold4)
			if warm1.TargetLine != cold1.TargetLine || warm1.Direction != cold1.Direction {
				t.Errorf("%s: warm target (%d,%+d) vs cold (%d,%+d)",
					name, warm1.TargetLine, warm1.Direction, cold1.TargetLine, cold1.Direction)
			}
			if warm1.GainPct != cold1.GainPct {
				t.Errorf("%s: warm gain %.17g vs cold %.17g", name, warm1.GainPct, cold1.GainPct)
			}
			// Warm starts only exist at child nodes: each row-generation
			// round contributes one (cold) root, so a search that never
			// branches — case9's four subproblems all prune at the root —
			// has nothing to warm-start.
			if warm1.Stats.Nodes > warm1.Stats.Rounds && warm1.Stats.WarmNodes == 0 {
				t.Errorf("%s: search branched (%d nodes over %d rounds) but warm mode never engaged the dual simplex path",
					name, warm1.Stats.Nodes, warm1.Stats.Rounds)
			}
		})
	}
}

// TestWarmStartCase118Speedup is the performance gate: on the budgeted
// case118 attack, warm-started dual simplex must spend at most half the
// pivots of an otherwise identical cold run (same machinery, same budgets,
// same attack — the NoWarmStart hook is the only difference), while
// reproducing the recorded gain exactly. Run via make bench-warmstart (and
// as part of make check).
func TestWarmStartCase118Speedup(t *testing.T) {
	if testing.Short() {
		t.Skip("case118 gate skipped in -short mode")
	}
	k := knowledgeCase(t, "case118")
	o := warmGateOpts()
	o.Workers = 1
	att, err := edattack.FindOptimalAttack(k, o)
	if err != nil {
		t.Fatal(err)
	}
	if att.Stats == nil {
		t.Fatal("attack carries no SolverStats")
	}
	got := att.Stats.SimplexIterations
	co := coldGateOpts()
	co.Workers = 1
	coldAtt, err := edattack.FindOptimalAttack(k, co)
	if err != nil {
		t.Fatal(err)
	}
	cold := coldAtt.Stats.SimplexIterations
	if coldAtt.GainPct != att.GainPct {
		t.Errorf("cold gain %.17g differs from warm gain %.17g", coldAtt.GainPct, att.GainPct)
	}
	if got*2 > cold {
		t.Errorf("warm run spent %d simplex iterations vs %d cold; want ≥2× reduction", got, cold)
	}
	if att.Stats.WarmNodes == 0 {
		t.Error("warm-start hit count is zero: the dual simplex path never engaged")
	}
	// The recorded baseline must agree with what this binary produces:
	// BENCH_solver.json is refreshed by the same budgets, so equality here
	// means the checked-in numbers are honest.
	base, err := loadSolverBaseline()
	if err != nil {
		t.Fatalf("BENCH_solver.json: %v", err)
	}
	rec, ok := base["case118"]
	if !ok {
		t.Fatal("BENCH_solver.json has no case118 record")
	}
	if rec.GainPct != att.GainPct {
		t.Errorf("gain %.17g differs from recorded %.17g", att.GainPct, rec.GainPct)
	}
	if rec.SimplexIterations != got {
		t.Errorf("simplex iterations %d differ from recorded %d — rerun BENCH_SOLVER=1 go test -run TestRecordSolverBaseline",
			got, rec.SimplexIterations)
	}
	t.Logf("case118 budgeted: %d pivots warm vs %d cold (%.2f×), %d warm nodes, %d fallbacks, gain %.6f%%",
		got, cold, float64(cold)/float64(got), att.Stats.WarmNodes, att.Stats.WarmFallbacks, att.GainPct)
}

// TestWarmStartRecordedBaselines pins the budgeted case9/case30/case57
// attacks to their recorded baselines: gain and pivot totals must match
// BENCH_solver.json exactly (the deterministic Workers=1 schedule).
func TestWarmStartRecordedBaselines(t *testing.T) {
	base, err := loadSolverBaseline()
	if err != nil {
		t.Fatalf("BENCH_solver.json: %v", err)
	}
	for _, name := range []string{"case9", "case30", "case57"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rec, ok := base[name]
			if !ok {
				t.Fatalf("BENCH_solver.json has no %s record", name)
			}
			k := knowledgeCase(t, name)
			o := warmGateOpts()
			o.Workers = 1
			att, err := edattack.FindOptimalAttack(k, o)
			if err != nil {
				t.Fatal(err)
			}
			if att.GainPct != rec.GainPct {
				t.Errorf("gain %.17g differs from recorded %.17g", att.GainPct, rec.GainPct)
			}
			if att.Stats.SimplexIterations != rec.SimplexIterations {
				t.Errorf("simplex iterations %d differ from recorded %d — rerun BENCH_SOLVER=1 go test -run TestRecordSolverBaseline",
					att.Stats.SimplexIterations, rec.SimplexIterations)
			}
		})
	}
}

type solverRecord struct {
	Case              string  `json:"case"`
	SimplexIterations int     `json:"simplex_iterations"`
	GainPct           float64 `json:"gain_pct"`
	WarmNodes         int     `json:"warm_nodes"`
	WarmFallbacks     int     `json:"warm_fallbacks"`
	WarmHitRate       float64 `json:"warm_hit_rate"`
	PivotsPerNode     float64 `json:"pivots_per_node"`
	WallMsSequential  float64 `json:"wall_ms_sequential"`
	// Sparse revised-simplex fields (see TestRecordSolverBaseline).
	SparseSimplexIterations int     `json:"sparse_simplex_iterations"`
	SparseGainPct           float64 `json:"sparse_gain_pct"`
	FTRANTotal              int64   `json:"lp_ftran_total"`
	BTRANTotal              int64   `json:"lp_btran_total"`
	RefactorizationsTotal   int64   `json:"lp_refactorizations_total"`
	KKTNNZ                  int     `json:"kkt_nnz"`
	KKTDensity              float64 `json:"kkt_density"`
	SparseWallMs            float64 `json:"sparse_wall_ms"`
	SparseSpeedup           float64 `json:"sparse_speedup"`
}

func loadSolverBaseline() (map[string]solverRecord, error) {
	raw, err := os.ReadFile("BENCH_solver.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Records []solverRecord `json:"records"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	out := make(map[string]solverRecord, len(doc.Records))
	for _, r := range doc.Records {
		out[r.Case] = r
	}
	return out, nil
}
