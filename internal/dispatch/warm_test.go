package dispatch_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/telemetry"
)

// warmModel builds a case's dispatch model with a metrics registry attached.
func warmModel(t *testing.T, name string) (*dispatch.Model, *telemetry.Registry) {
	t.Helper()
	n, err := cases.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(n)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m.Metrics = reg
	return m, reg
}

// inBandRatings draws a rating vector with every DLR line uniform in its
// plausibility band.
func inBandRatings(m *dispatch.Model, r *rand.Rand) []float64 {
	dlr := map[int]float64{}
	for _, li := range m.Net.DLRLines() {
		l := &m.Net.Lines[li]
		dlr[li] = l.DLRMin + r.Float64()*(l.DLRMax-l.DLRMin)
	}
	return m.Net.Ratings(dlr)
}

// freshSolve dispatches on a new clone: no warm state, no cached factors.
func freshSolve(m *dispatch.Model, ratings []float64) (*dispatch.Result, error) {
	c := m.ShallowClone()
	c.Metrics = nil
	return c.Solve(ratings)
}

// sameDispatch asserts two solves of one rating vector agree: feasibility
// and binding set exactly, flows and cost to 1e-9 relative.
func sameDispatch(t *testing.T, what string, got, want *dispatch.Result, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: feasibility differs: %v vs fresh %v", what, gotErr, wantErr)
	}
	if wantErr != nil {
		if !errors.Is(gotErr, dispatch.ErrInfeasible) || !errors.Is(wantErr, dispatch.ErrInfeasible) {
			t.Fatalf("%s: unexpected errors %v / %v", what, gotErr, wantErr)
		}
		return
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	if !slices.Equal(got.Binding, want.Binding) {
		t.Fatalf("%s: binding %v, fresh %v", what, got.Binding, want.Binding)
	}
	if !near(got.Cost, want.Cost) {
		t.Fatalf("%s: cost %.17g, fresh %.17g", what, got.Cost, want.Cost)
	}
	for li := range want.Flows {
		if !near(got.Flows[li], want.Flows[li]) {
			t.Fatalf("%s: flow[%d] %.17g, fresh %.17g", what, li, got.Flows[li], want.Flows[li])
		}
	}
}

// A long-lived model, whose every solve starts from the previous one's end
// state, must dispatch exactly as a fresh clone does, over seeded in-band
// rating vectors; most of its QPs must actually start warm.
func TestWarmDispatchMatchesFresh(t *testing.T) {
	for _, name := range []string{"case57", "case118"} {
		t.Run(name, func(t *testing.T) {
			if name == "case118" && testing.Short() {
				t.Skip("118-bus replay skipped in -short mode")
			}
			m, reg := warmModel(t, name)
			r := rand.New(rand.NewSource(57118))
			const vectors = 500
			for v := 0; v < vectors; v++ {
				ratings := inBandRatings(m, r)
				got, gotErr := m.Solve(ratings)
				want, wantErr := freshSolve(m, ratings)
				sameDispatch(t, name, got, want, gotErr, wantErr)
			}
			warm := reg.Counter("qp_warm_starts_total").Value()
			if warm < vectors/2 {
				t.Fatalf("%d of %d solves started warm", warm, vectors)
			}
			t.Logf("%s: %d vectors, %d warm QP starts, %d feasibility LPs", name, vectors, warm,
				reg.Counter("qp_feasibility_lp_total").Value())
		})
	}
}

// Lowering a binding line's rating cuts off the warm optimum, so that solve
// must take the cold path (a feasibility LP, no warm start) and still match
// a fresh clone; re-solving unchanged ratings starts warm with no LP, and
// ResetWarmStart forgets the state.
func TestWarmDispatchCutOffTakesColdPath(t *testing.T) {
	m, reg := warmModel(t, "case118")
	warm := reg.Counter("qp_warm_starts_total")
	lps := reg.Counter("qp_feasibility_lp_total")
	// solve reports the warm starts and feasibility LPs one solve took.
	solve := func(ratings []float64) (*dispatch.Result, int64, int64, error) {
		w0, l0 := warm.Value(), lps.Value()
		res, err := m.Solve(ratings)
		return res, warm.Value() - w0, lps.Value() - l0, err
	}
	ratings := m.Net.Ratings(nil)
	res, _, _, err := solve(ratings)
	if err != nil {
		t.Fatal(err)
	}
	// Make the most heavily loaded line bind: the warm state now carries
	// its row.
	cut := 0
	for li, f := range res.Flows {
		if math.Abs(f) > math.Abs(res.Flows[cut]) {
			cut = li
		}
	}
	ratings[cut] = 0.98 * math.Abs(res.Flows[cut])
	res, _, _, err = solve(ratings)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(res.Binding, cut) {
		t.Fatalf("line %d does not bind at rating %g", cut, ratings[cut])
	}
	if _, w, l, err := solve(ratings); err != nil || w != 1 || l != 0 {
		t.Fatalf("unchanged re-solve: err %v, %d warm starts, %d feasibility LPs; want 1 and 0", err, w, l)
	}

	lowered := slices.Clone(ratings)
	lowered[cut] = 0.95 * math.Abs(res.Flows[cut])
	got, w, l, gotErr := solve(lowered)
	if w != 0 || l == 0 {
		t.Fatalf("cut-off solve: %d warm starts, %d feasibility LPs; want the cold path", w, l)
	}
	want, wantErr := freshSolve(m, lowered)
	sameDispatch(t, "cut-off", got, want, gotErr, wantErr)

	m.ResetWarmStart()
	if _, w, l, _ := solve(lowered); w != 0 || l == 0 {
		t.Fatalf("after ResetWarmStart: %d warm starts, %d feasibility LPs; want the cold path", w, l)
	}
}
