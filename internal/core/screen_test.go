package core

import (
	"math"
	"testing"

	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid/cases"
)

// screenKnowledge builds attacker knowledge for a case with true ratings at
// the static values.
func screenKnowledge(t *testing.T, name string) *Knowledge {
	t.Helper()
	n, err := cases.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(n)
	if err != nil {
		t.Fatal(err)
	}
	ud := map[int]float64{}
	for _, li := range n.DLRLines() {
		ud[li] = n.Lines[li].RateMVA
	}
	k, err := NewKnowledge(m, ud)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// The polish screen skips a candidate only when the dispatch provably stays
// put: for every skipped candidate, a fresh ED must score the incumbent
// gain to within 1e-9 pp. Linear costs give no uniqueness, so case3 must
// screen nothing. The dives of a few targets per case drive the polish.
func TestPolishScreenIsExact(t *testing.T) {
	defer func() { screenHook = nil }()
	for _, c := range []struct {
		name    string
		targets int
		screens bool
	}{
		{"case57", 4, true},
		{"case118", 2, true},
		{"case3", 3, false},
	} {
		if c.name == "case118" && testing.Short() {
			continue // 118-bus dives skipped in -short mode
		}
		k := screenKnowledge(t, c.name)
		screened, worst := 0, 0.0
		screenHook = func(s *subproblem, cand map[int]float64, incumbent float64) {
			screened++
			res, err := k.Model.ShallowClone().Solve(k.ratingsUnder(cand))
			if err != nil {
				t.Fatalf("%s: screened candidate %v is infeasible: %v", c.name, cand, err)
			}
			gain := 100*s.dir*res.Flows[s.target]/k.TrueDLR[s.target] - 100
			worst = math.Max(worst, math.Abs(gain-incumbent))
		}
		o := Options{}.withDefaults()
		order := k.Model.Net.DLRLines()
		for _, li := range order[:min(c.targets, len(order))] {
			for _, dir := range []float64{1, -1} {
				newSubproblem(k, li, dir, nil, o, nil).dive()
			}
		}
		t.Logf("%s: %d candidates screened, largest fresh-ED gain gap %.3g pp", c.name, screened, worst)
		if worst > 1e-9 {
			t.Errorf("%s: a screened candidate's fresh ED moved the gain by %.3g pp", c.name, worst)
		}
		if c.screens && screened == 0 {
			t.Errorf("%s: the screen skipped no candidate", c.name)
		}
		if !c.screens && screened != 0 {
			t.Errorf("%s: linear costs, yet %d candidates were screened", c.name, screened)
		}
	}
}
