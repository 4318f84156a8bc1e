package edattack_test

import (
	"runtime"
	"testing"

	edattack "github.com/edsec/edattack"
	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/lp"
)

// mallocsNow reads the cumulative heap-object allocation counter.
func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// attackAllocRun runs one attack on a fresh knowledge bundle and returns the
// attack plus the Mallocs spent inside FindOptimalAttack alone (knowledge
// construction is excluded — the serving layer builds it once per topology).
func attackAllocRun(tb testing.TB, caseName string, o edattack.AttackOptions) (*edattack.Attack, uint64) {
	tb.Helper()
	k := knowledgeCase(tb, caseName)
	before := mallocsNow()
	att, err := edattack.FindOptimalAttack(k, o)
	after := mallocsNow()
	if err != nil {
		tb.Fatalf("attack on %s: %v", caseName, err)
	}
	return att, after - before
}

// perNodeAllocs measures the marginal allocation cost of one extra
// branch-and-bound node: two otherwise-identical budgeted runs (MaxNodes 1
// vs maxNodes), ΔMallocs over Δnodes. The NoDive hook keeps the delta pure
// branch-and-bound, Workers 1 keeps it deterministic, the ForceSparse hook
// pins the engine the workspaces serve.
func perNodeAllocs(tb testing.TB, caseName string, maxNodes int, disablePooling bool) float64 {
	tb.Helper()
	opts := func(nodes int) edattack.AttackOptions {
		return core.WithHooks(edattack.AttackOptions{MaxNodes: nodes, Workers: 1},
			core.Hooks{NoDive: true, ForceSparse: true, DisablePooling: disablePooling})
	}
	small, smallAllocs := attackAllocRun(tb, caseName, opts(1))
	big, bigAllocs := attackAllocRun(tb, caseName, opts(maxNodes))
	dn := big.Nodes - small.Nodes
	if dn <= 0 {
		tb.Fatalf("%s: node budget %d explored %d nodes vs %d at budget 1 — no delta to measure",
			caseName, maxNodes, big.Nodes, small.Nodes)
	}
	return float64(bigAllocs-smallAllocs) / float64(dn)
}

// measureEvaluateAllocs is the warm serving hot path's allocation rate:
// heap objects per EvaluateAttack against a workspace-carrying model, the
// exact shape edserve runs per evaluate request (modulo HTTP).
func measureEvaluateAllocs(tb testing.TB, caseName string, solves int) float64 {
	tb.Helper()
	k := knowledgeCase(tb, caseName)
	k.Model.Workspace = lp.NewWorkspace()
	att := attackDLR(tb, caseName, 1.05)
	// Warm-up: grow the workspace and the dispatch warm-start state.
	for i := 0; i < 3; i++ {
		if _, err := k.EvaluateAttack(att); err != nil {
			tb.Fatal(err)
		}
	}
	before := mallocsNow()
	for i := 0; i < solves; i++ {
		if _, err := k.EvaluateAttack(att); err != nil {
			tb.Fatal(err)
		}
	}
	return float64(mallocsNow()-before) / float64(solves)
}

// attackDLR builds the in-band +5% manipulation the evaluate benchmarks use.
func attackDLR(tb testing.TB, caseName string, scale float64) map[int]float64 {
	tb.Helper()
	net, err := edattack.LoadCase(caseName)
	if err != nil {
		tb.Fatal(err)
	}
	dlr := map[int]float64{}
	for _, li := range net.DLRLines() {
		dlr[li] = net.Lines[li].RateMVA * scale
	}
	return dlr
}

// assertSameAttack compares two attacks bit for bit on everything the
// serving contract promises: gain, target, direction, and the full
// manipulated-rating vector.
func assertSameAttack(tb testing.TB, label string, got, want *edattack.Attack) {
	tb.Helper()
	if got.GainPct != want.GainPct || got.TargetLine != want.TargetLine || got.Direction != want.Direction {
		tb.Errorf("%s: gain %.17g target %d dir %+d, want %.17g %d %+d",
			label, got.GainPct, got.TargetLine, got.Direction,
			want.GainPct, want.TargetLine, want.Direction)
		return
	}
	if len(got.DLR) != len(want.DLR) {
		tb.Errorf("%s: DLR has %d lines, want %d", label, len(got.DLR), len(want.DLR))
		return
	}
	for li, v := range want.DLR {
		if got.DLR[li] != v {
			tb.Errorf("%s: DLR[%d] = %.17g, want %.17g", label, li, got.DLR[li], v)
		}
	}
}

// BenchmarkWarmEvaluateAllocs is the -benchmem smoke the CI allocation job
// runs: the warm workspace-backed evaluate solve — the serving layer's
// per-request hot path — reporting wall time and allocs/op.
func BenchmarkWarmEvaluateAllocs(b *testing.B) {
	k := knowledgeCase(b, "case118")
	k.Model.Workspace = lp.NewWorkspace()
	att := attackDLR(b, "case118", 1.05)
	for i := 0; i < 3; i++ {
		if _, err := k.EvaluateAttack(att); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.EvaluateAttack(att); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPoolingIdentityGate pins the workspace-pooling correctness contract:
// pooling only moves where arrays live, so every attack is bit-identical
// with pooling on and off — across worker counts on the exact cases, and on
// the budgeted case118 attack the serving baselines record.
func TestPoolingIdentityGate(t *testing.T) {
	for _, name := range []string{"case9", "case30", "case57"} {
		for _, workers := range []int{1, 4} {
			pooled, err := edattack.FindOptimalAttack(knowledgeCase(t, name),
				edattack.AttackOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			unpooled, err := edattack.FindOptimalAttack(knowledgeCase(t, name),
				core.WithHooks(edattack.AttackOptions{Workers: workers}, core.Hooks{DisablePooling: true}))
			if err != nil {
				t.Fatalf("%s workers=%d nopool: %v", name, workers, err)
			}
			assertSameAttack(t, name+" pooled-vs-unpooled", pooled, unpooled)
		}
	}
	if testing.Short() {
		t.Log("budgeted case118 identity arm skipped in -short mode")
		return
	}
	budget := edattack.AttackOptions{MaxNodes: 40, RelGap: 1e-3, Workers: 1}
	pooled, err := edattack.FindOptimalAttack(knowledgeCase(t, "case118"), budget)
	if err != nil {
		t.Fatal(err)
	}
	nopool := core.WithHooks(budget, core.Hooks{DisablePooling: true})
	unpooled, err := edattack.FindOptimalAttack(knowledgeCase(t, "case118"), nopool)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAttack(t, "case118 budgeted pooled-vs-unpooled", pooled, unpooled)
	if pooled.Nodes != unpooled.Nodes || pooled.Rounds != unpooled.Rounds {
		t.Errorf("case118 budgeted work diverged: pooled %d nodes %d rounds, unpooled %d nodes %d rounds",
			pooled.Nodes, pooled.Rounds, unpooled.Nodes, unpooled.Rounds)
	}
}

// TestAllocGate is the allocation-regression gate. It measures the live
// per-node branch-and-bound allocation cost with pooling on and off (case30,
// fast) and fails when pooling saves less than the 5× acceptance floor; it
// also cross-checks the recorded case118 figures in BENCH_serve.json against
// the same floor, and pins the workspace-backed evaluate path under a live
// allocation ceiling.
func TestAllocGate(t *testing.T) {
	pooled := perNodeAllocs(t, "case30", 400, false)
	unpooled := perNodeAllocs(t, "case30", 400, true)
	if pooled <= 0 {
		t.Fatalf("pooled per-node allocation measure %.1f is not positive — measurement broke", pooled)
	}
	ratio := unpooled / pooled
	t.Logf("case30 per-node allocs: pooled %.1f, unpooled %.1f (%.1f× saved)", pooled, unpooled, ratio)
	if ratio < 5 {
		t.Errorf("pooling saves only %.1f× per-node allocations (pooled %.1f, unpooled %.1f), want ≥5×",
			ratio, pooled, unpooled)
	}

	evalAllocs := measureEvaluateAllocs(t, "case118", 32)
	t.Logf("case118 warm evaluate: %.1f allocs/solve", evalAllocs)
	if evalAllocs > 1000 {
		t.Errorf("warm workspace-backed evaluate allocates %.1f objects/solve, want ≤1000", evalAllocs)
	}

	base, err := loadServeBaseline()
	if err != nil {
		t.Fatalf("BENCH_serve.json: %v — record it with make bench-serve-baseline", err)
	}
	rec, ok := base["case118"]
	if !ok {
		t.Fatal("BENCH_serve.json has no case118 record")
	}
	if rec.AllocsPerNode <= 0 || rec.AllocsPerNodeNoPool <= 0 {
		t.Fatalf("BENCH_serve.json records no per-node allocation figures — rerun make bench-serve-baseline")
	}
	if recRatio := rec.AllocsPerNodeNoPool / rec.AllocsPerNode; recRatio < 5 {
		t.Errorf("recorded case118 per-node allocation saving %.1f× is below the 5× floor — rerun make bench-serve-baseline",
			recRatio)
	}
	if rec.AttackRPS <= 0 {
		t.Error("BENCH_serve.json records no concurrent attack throughput — rerun make bench-serve-baseline")
	}
}
