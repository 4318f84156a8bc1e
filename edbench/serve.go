package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/edsec/edattack"
	"github.com/edsec/edattack/internal/sweep"
)

// The serve-screen mix: evaluations of distinct in-band manipulated rating
// vectors and small seeded sweeps, all on one topology, arriving at fixed
// intervals. Attacks are left out: on two workers an evaluate that queues
// behind a 100–200 ms attack swings the evaluate tail far more than any
// serving-layer change would.
const (
	serveCase     = "case118"
	baseRate      = 30.0 // rps of the fixed-rate phase
	sweepEvery    = 5    // one request in five is a sweep
	serveSetups   = 5
	sweepDraws    = 16
	sweepChecks   = 8
	evalLimitMS   = 50.0  // evaluate tail limit of a passing ladder rung
	sweepLimitMS  = 150.0 // sweep tail limit of a passing ladder rung
	backlogSlopMS = 5.0   // send-wait growth across a rung that counts as a growing backlog
)

var (
	sweepHours  = []float64{0, 12}
	sweepMags   = []float64{0, 0.2}
	ladderRates = []float64{40, 50, 60, 75, 90, 110}
)

// rungShare is each ladder rung's share of --seconds.
const rungShare = 0.05

// probeSeconds is how long the serve probe of an attack workload's traced
// run lasts.
const probeSeconds = 3.0

// serveReq is one generated request.
type serveReq struct {
	kind string // "evaluate" or "sweep"
	body []byte
	dlr  map[int]float64
	seed int64
}

type evalPayload struct {
	Feasible  bool    `json:"feasible"`
	GainPct   float64 `json:"gain_pct"`
	WorstLine int     `json:"worst_line"`
	Direction int     `json:"direction"`
	Cost      float64 `json:"cost"`
}

type sweepPayload struct {
	Scenarios  int     `json:"scenarios"`
	Dangerous  int     `json:"dangerous"`
	Detected   int     `json:"detected"`
	Success    int     `json:"success"`
	Rate       float64 `json:"success_rate"`
	MeanCost   float64 `json:"mean_cost"`
	MergedJobs int     `json:"merged_jobs"`
	EvalMS     float64 `json:"eval_ms"`
}

// serveEvent is one NDJSON line of a job stream. queue_ms and solve_ms
// ride on the result (or error) event; done carries only wall_ms.
type serveEvent struct {
	Event      string        `json:"event"`
	Evaluation *evalPayload  `json:"evaluation"`
	Sweep      *sweepPayload `json:"sweep"`
	WallMS     float64       `json:"wall_ms"`
	QueueMS    float64       `json:"queue_ms"`
	SolveMS    float64       `json:"solve_ms"`
}

// serveObs is what the client saw of one request. Latency runs from the
// request's due time, so time spent waiting for a free connection counts.
type serveObs struct {
	req      *serveReq
	latMS    float64 // due → last byte
	waitMS   float64 // due → sent
	clientMS float64 // sent → last byte
	wallMS   float64 // server wall_ms from the done event
	queueMS  float64
	solveMS  float64
	refused  bool
	failed   bool
	eval     *evalPayload
	sweep    *sweepPayload
}

func (o *serveObs) ok() bool { return !o.refused && !o.failed }

// liveServer is an in-process edserve behind a loopback listener.
type liveServer struct {
	srv    *edattack.Server
	hs     *http.Server
	url    string
	served chan error
}

func startServer(reg *edattack.MetricsRegistry) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{
		srv:    edattack.NewServer(edattack.ServeConfig{Metrics: reg}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, the daemon's workers and the serving
// goroutine, and waits for all of them.
func (s *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.srv.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// loadGen sends requests over at most runtime.NumCPU() keep-alive
// connections.
type loadGen struct {
	client *http.Client
	conns  int
	spans  *spanLog
}

func newLoadGen(spans *spanLog) *loadGen {
	conns := runtime.NumCPU()
	return &loadGen{
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		conns: conns,
		spans: spans,
	}
}

func (g *loadGen) close() { g.client.CloseIdleConnections() }

// send posts one request and reads its event stream to the end.
func (g *loadGen) send(url string, q *serveReq, due time.Time) (o serveObs) {
	o.req = q
	sp := g.spans.start("bench.request", "kind", q.kind)
	defer sp.End()
	sent := time.Now()
	o.waitMS = ms(sent.Sub(due))
	defer func() {
		done := time.Now()
		o.latMS, o.clientMS = ms(done.Sub(due)), ms(done.Sub(sent))
	}()
	resp, err := g.client.Post(url+"/v1/"+q.kind, "application/json", bytes.NewReader(q.body))
	if err != nil {
		o.failed = true
		return o
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining lets the connection be reused
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		o.refused = true
		return o
	default:
		o.failed = true
		return o
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	got := false
	for sc.Scan() {
		var ev serveEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			o.failed = true
			return o
		}
		switch ev.Event {
		case "result":
			got = true
			o.queueMS, o.solveMS = ev.QueueMS, ev.SolveMS
			o.eval, o.sweep = ev.Evaluation, ev.Sweep
		case "error":
			o.failed = true
			o.queueMS, o.solveMS = ev.QueueMS, ev.SolveMS
		case "done":
			o.wallMS = ev.WallMS
		}
	}
	if sc.Err() != nil || !got {
		o.failed = true
	}
	return o
}

// openLoop sends reqs at fixed intervals of 1/rate. A scheduler hands each
// request over at its due time; g.conns senders take them in order, so
// when every connection is busy requests wait, and that wait counts in
// their latency. It returns every observation and the scheduler's lateness
// per request in ms.
func (g *loadGen) openLoop(url string, reqs []serveReq, rate float64) ([]serveObs, []float64) {
	obs := make([]serveObs, len(reqs))
	lags := make([]float64, len(reqs))
	dues := make([]time.Time, len(reqs))
	start := time.Now().Add(5 * time.Millisecond)
	for i := range dues {
		dues[i] = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	ready := make(chan int, len(reqs)) // one slot per request: the scheduler never blocks
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				obs[i] = g.send(url, &reqs[i], dues[i])
			}
		}()
	}
	for i, due := range dues {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = ms(time.Since(due))
		ready <- i
	}
	close(ready)
	wg.Wait()
	return obs, lags
}

// genRequests draws the next n requests of the seeded stream. Kinds come
// in blocks of five holding one sweep at a seeded position, so every run
// offers the same mix; evaluate vectors come from the vector stream.
func genRequests(vectors *vectorStream, rng *rand.Rand, n int) ([]serveReq, error) {
	reqs := make([]serveReq, n)
	sweepAt := 0
	for i := range reqs {
		if i%sweepEvery == 0 {
			sweepAt = i + rng.Intn(sweepEvery)
		}
		q := &reqs[i]
		var body any
		if i != sweepAt {
			q.kind = "evaluate"
			q.dlr = vectors.next()
			body = map[string]any{"case": serveCase, "dlr": q.dlr}
		} else {
			q.kind = "sweep"
			q.seed = rng.Int63()
			body = map[string]any{"case": serveCase, "hours": sweepHours, "magnitudes": sweepMags, "draws": sweepDraws, "seed": q.seed}
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		q.body = b
	}
	return reqs, nil
}

// serveSetup starts a server and sends the first evaluate and sweep on the
// topology, which build its dispatch model, knowledge and sweep
// precomputation.
func serveSetup(g *loadGen, reg *edattack.MetricsRegistry, netw *edattack.Network) (*liveServer, time.Duration, error) {
	start := time.Now()
	s, err := startServer(reg)
	if err != nil {
		return nil, 0, err
	}
	static := map[int]float64{}
	for _, li := range netw.DLRLines() {
		static[li] = netw.Lines[li].RateMVA
	}
	first := []serveReq{
		{kind: "evaluate", dlr: static},
		{kind: "sweep"},
	}
	// Maps of strings, floats and float slices always marshal.
	first[0].body, _ = json.Marshal(map[string]any{"case": serveCase, "dlr": static})
	first[1].body, _ = json.Marshal(map[string]any{"case": serveCase, "hours": sweepHours, "magnitudes": sweepMags, "draws": sweepDraws})
	for i := range first {
		if o := g.send(s.url, &first[i], time.Now()); !o.ok() {
			s.close()
			return nil, 0, fmt.Errorf("first %s request failed", first[i].kind)
		}
	}
	return s, time.Since(start), nil
}

// byKind splits the successful observations' latencies by request kind.
func byKind(obs []serveObs, field func(*serveObs) float64) (evals, sweeps []float64) {
	for i := range obs {
		o := &obs[i]
		if !o.ok() {
			continue
		}
		if o.req.kind == "evaluate" {
			evals = append(evals, field(o))
		} else {
			sweeps = append(sweeps, field(o))
		}
	}
	return evals, sweeps
}

func lat(o *serveObs) float64 { return o.latMS }

// rungPasses applies the ladder limits: evaluate and sweep tails within
// their limits counting every refused or failed request as over the
// limit, and no backlog growing across the rung.
func rungPasses(obs []serveObs) (bool, string) {
	var evals, sweeps []float64
	for i := range obs {
		v := obs[i].latMS
		if !obs[i].ok() {
			v = math.Inf(1)
		}
		if obs[i].req.kind == "evaluate" {
			evals = append(evals, v)
		} else {
			sweeps = append(sweeps, v)
		}
	}
	eq, ev := tailOf(evals, 0.99)
	sq, sv := tailOf(sweeps, 0.95)
	q := len(obs) / 4
	waits := func(part []serveObs) []float64 {
		w := make([]float64, len(part))
		for i := range part {
			w[i] = part[i].waitMS
		}
		return w
	}
	growth := median(waits(obs[len(obs)-q:])) - median(waits(obs[:q]))
	why := fmt.Sprintf("evaluate p%s %.1f ms, sweep p%s %.1f ms, backlog growth %.1f ms",
		pctLabel(eq), ev, pctLabel(sq), sv, growth)
	return ev <= evalLimitMS && sv <= sweepLimitMS && growth <= backlogSlopMS, why
}

// checkServed compares served answers against the library paths: every
// given evaluation against EvaluateAttack on a library model of its own,
// and a seeded sample of sweeps against GenScenarios + Eval.
func checkServed(r *report, obs []serveObs, rng *rand.Rand) error {
	netw, err := edattack.LoadCase(serveCase)
	if err != nil {
		return err
	}
	model, err := edattack.NewDispatchModel(netw)
	if err != nil {
		return err
	}
	static := map[int]float64{}
	for _, li := range netw.DLRLines() {
		static[li] = netw.Lines[li].RateMVA
	}
	k, err := edattack.NewKnowledge(model, static)
	if err != nil {
		return err
	}
	pc, err := sweep.Precompute(netw)
	if err != nil {
		return err
	}
	var sweeps []*serveObs
	costBits := 0
	for i := range obs {
		o := &obs[i]
		switch {
		case o.eval != nil:
			ev, err := edattack.EvaluateAttack(k, o.req.dlr)
			same, bitSame := false, false
			if err == nil {
				same, bitSame = sameEval(o.eval, ev)
			}
			if same && !bitSame {
				costBits++
			}
			if !same {
				r.fail("served_evaluate_equals_library")
				if r.incorrect["served_evaluate_equals_library"] <= 3 {
					r.note("served evaluation %+v differs from library %+v (err %v) for dlr %v", *o.eval, libEval(ev), err, o.req.dlr)
				}
			}
		case o.sweep != nil:
			sweeps = append(sweeps, o)
		}
	}
	r.add("evaluate_cost_last_bits_differ", "count", float64(costBits))
	rng.Shuffle(len(sweeps), func(i, j int) { sweeps[i], sweeps[j] = sweeps[j], sweeps[i] })
	for _, o := range sweeps[:min(sweepChecks, len(sweeps))] {
		want, err := librarySweep(pc, o.req.seed)
		if err != nil {
			return err
		}
		got := *o.sweep
		got.MergedJobs, got.EvalMS = 0, 0
		if got != want {
			r.fail("served_sweep_equals_library")
		}
	}
	return nil
}

// libEval renders a library evaluation the way the daemon reports it.
func libEval(ev *edattack.AttackEvaluation) evalPayload {
	if ev == nil {
		return evalPayload{}
	}
	p := evalPayload{Feasible: ev.Feasible, GainPct: ev.GainPct, WorstLine: ev.WorstLine, Direction: ev.Direction}
	if ev.Dispatch != nil {
		p.Cost = ev.Dispatch.Cost
	}
	return p
}

// sameEval compares a served evaluation with the library's: feasibility,
// gain, worst line and direction exactly — the program quantizes gains so
// they do not depend on solver history — and the unquantized dispatch cost
// to 1e-12 relative, since its last bits follow the active-set path a
// warm-started model takes. bitSame reports whether the cost matched to
// the bit as well.
func sameEval(got *evalPayload, want *edattack.AttackEvaluation) (same, bitSame bool) {
	w := libEval(want)
	costOK := math.Abs(got.Cost-w.Cost) <= 1e-12*math.Max(1, math.Abs(w.Cost))
	g := *got
	g.Cost = w.Cost
	return g == w && costOK, *got == w
}

// librarySweep evaluates one sweep request through the library path and
// aggregates it the way the daemon reports it.
func librarySweep(pc *sweep.Precomp, seed int64) (sweepPayload, error) {
	scs, _, err := sweep.GenScenarios(pc, sweep.SurfaceConfig{
		Hours: sweepHours, Magnitudes: sweepMags, Draws: sweepDraws, Seed: seed,
	})
	if err != nil {
		return sweepPayload{}, err
	}
	outs, err := sweep.Eval(pc, scs, sweep.Options{})
	if err != nil {
		return sweepPayload{}, err
	}
	var p sweepPayload
	var cost float64
	for _, out := range outs {
		p.Scenarios++
		if out.Dangerous {
			p.Dangerous++
		}
		if out.Detected {
			p.Detected++
		}
		if out.Success {
			p.Success++
		}
		cost += out.Cost
	}
	if p.Scenarios > 0 {
		p.Rate = float64(p.Success) / float64(p.Scenarios)
		p.MeanCost = cost / float64(p.Scenarios)
	}
	return p, nil
}

// tally counts attempted, failed and refused requests into the report.
func tally(r *report, obs []serveObs) (refused int) {
	for i := range obs {
		r.attempted++
		switch {
		case obs[i].refused:
			refused++
			r.failed++
		case obs[i].failed:
			r.failed++
		}
	}
	return refused
}

// statsDoc is the part of /v1/stats the benchmark reads.
type statsDoc struct {
	Topologies int `json:"topologies"`
	WarmBases  int `json:"warm_bases"`
	Mem        struct {
		HeapLiveBytes uint64 `json:"heap_live_bytes"`
	} `json:"mem"`
}

func (g *loadGen) stats(url string) (statsDoc, error) {
	var doc statsDoc
	resp, err := g.client.Get(url + "/v1/stats")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}

// tracedServe runs the mix at baseRate for the given seconds against a
// fresh server with a metrics registry attached and a span around every
// request, and records the serve, sweep, generator and runtime layer
// metrics. It returns the observations for the output checks.
func tracedServe(r *report, netw *edattack.Network, vectors *vectorStream, rng *rand.Rand, seconds float64, spans *spanLog) ([]serveObs, error) {
	reg := edattack.NewMetricsRegistry()
	g := newLoadGen(spans)
	defer g.close()
	s, _, err := serveSetup(g, reg, netw)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer s.close()
	reqs, err := genRequests(vectors, rng, int(baseRate*seconds))
	if err != nil {
		return nil, err
	}
	m0 := readMem()
	obs, lags := g.openLoop(s.url, reqs, baseRate)
	mem := readMem().since(m0)
	refused := tally(r, obs)
	st, err := g.stats(s.url)
	if err != nil {
		return nil, fmt.Errorf("reading /v1/stats: %w", err)
	}

	queue := func(o *serveObs) float64 { return o.queueMS }
	solve := func(o *serveObs) float64 { return o.solveMS }
	transport := func(o *serveObs) float64 { return o.clientMS - o.wallMS }
	eq, sq := byKind(obs, queue)
	es, ss := byKind(obs, solve)
	et, stt := byKind(obs, transport)
	var merged, evalMS []float64
	for i := range obs {
		if sw := obs[i].sweep; sw != nil {
			merged = append(merged, float64(sw.MergedJobs))
			evalMS = append(evalMS, sw.EvalMS)
		}
	}
	snap := reg.Snapshot()
	hits, misses := float64(snap.Counters["sweep_cache_hits_total"]), float64(snap.Counters["sweep_cache_misses_total"])
	r.setLayers(map[string]float64{
		"serve.evaluate.queue_ms_p50":     median(eq),
		"serve.evaluate.queue_ms_p99":     quantile(eq, 0.99),
		"serve.evaluate.solve_ms_p50":     median(es),
		"serve.evaluate.transport_ms_p50": median(et),
		// The daemon reports a sweep's queue_ms in whole milliseconds, so
		// its median is a step function; the mean keeps the digits.
		"serve.sweep.queue_ms_mean":    ratio(sum(sq), float64(len(sq))),
		"serve.sweep.queue_ms_p99":     quantile(sq, 0.99),
		"serve.sweep.solve_ms_p50":     median(ss),
		"serve.sweep.transport_ms_p50": median(stt),
		"serve.refused":                float64(refused),
		"serve.sweep_merged_mean":      ratio(sum(merged), float64(len(merged))),
		"serve.heap_live_mb":           float64(st.Mem.HeapLiveBytes) / (1 << 20),
		"sweep.eval_ms_p50":            median(evalMS),
		"sweep.scenarios_per_s":        ratio(float64(snap.Counters["sweep_scenarios_total"]), histSum(snap, "sweep_batch_seconds")),
		"sweep.cache_hit_ratio":        ratio(hits, hits+misses),
		"go.mallocs_per_request":       float64(mem.mallocs) / float64(len(obs)),
		"go.gc_cycles":                 float64(mem.gc),
		"gen.lag_p99_ms":               quantile(lags, 0.99),
	})
	r.add("stats.topologies", "count", float64(st.Topologies))
	r.add("stats.warm_bases", "count", float64(st.WarmBases))
	return obs, nil
}

// serveProbe gives an attack workload's traced run readings of the
// serve, sweep and generator layers it does not drive itself: a short run
// of the serve-screen mix, its answers checked like serve-screen's.
func serveProbe(r *report, seed int64, spans *spanLog) error {
	netw, err := edattack.LoadCase(serveCase)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	vectors, err := newVectorStream(netw, 1, rng)
	if err != nil {
		return err
	}
	obs, err := tracedServe(r, netw, vectors, rng, probeSeconds, spans)
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	r.note("serve, sweep, generator and per-request runtime layers read from the serve probe: %.0f s of the serve-screen mix", probeSeconds)
	return checkServed(r, obs, rng)
}

// runServe is the serve-screen workload. Untraced: the fixed-rate phase at
// baseRate for the whole budget. Traced: a shorter fixed-rate phase and
// then a rising rate ladder, which stops at the first rung over its
// limits, on an untraced server; the attack probe; the fixed-rate phase
// again on a traced server; then the direct dispatch replay.
func runServe(c runConfig) (*report, error) {
	r := &report{}
	netw, err := edattack.LoadCase(serveCase)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.seed))
	vectors, err := newVectorStream(netw, 1, rng)
	if err != nil {
		return nil, err
	}
	total := time.Duration(c.seconds * float64(time.Second))

	var spans *spanLog
	if c.trace {
		spans = newSpanLog()
	}
	g := newLoadGen(nil)
	defer g.close()
	var s *liveServer
	for i := 0; i < serveSetups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // keep collections of earlier garbage out of the timed set-up
		var d time.Duration
		if s, d, err = serveSetup(g, nil, netw); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, d.Seconds())
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()

	// Untraced, the whole budget goes to the fixed-rate phase: the
	// end-to-end metrics come from it. Traced, a shorter fixed-rate phase
	// is the untraced reference for the tracing overhead.
	fixedShare := 1.0
	if c.trace {
		fixedShare = 0.3
	}
	fixed, err := genRequests(vectors, rng, int(baseRate*fixedShare*total.Seconds()))
	if err != nil {
		return nil, err
	}
	fixedObs, fixedLags := g.openLoop(s.url, fixed, baseRate)
	tally(r, fixedObs)
	evals, sweeps := byKind(fixedObs, lat)
	r.primary, r.secondary = evals, sweeps
	r.add("setup_s", "s", median(r.setup))
	r.addTiming("evaluate", "ms", 0.99, evals)
	r.addTiming("sweep", "ms", 0.95, sweeps)
	// A generator later than one inter-arrival interval has fallen
	// behind: it bunches arrivals, and the run no longer offers the load
	// it claims.
	lagP99 := quantile(fixedLags, 0.99)
	r.add("gen.lag_p99_ms", "ms", lagP99)
	if interval := 1e3 / baseRate; lagP99 > interval {
		r.note("FLAG: the generator fell behind (lag p99 %.2f ms > %.1f ms interval); latencies of this run are suspect", lagP99, interval)
	}
	if !c.trace {
		if err := checkServed(r, fixedObs, rng); err != nil {
			return nil, err
		}
		return r, nil
	}

	// The rate ladder runs in the traced run, on the untraced server: its
	// rungs are short, so max_rate_rps is a coarse capacity reading, and
	// the untraced runs keep their whole budget for the gated metrics.
	checked := fixedObs
	maxRate := 0.0
	if ok, why := rungPasses(fixedObs); ok {
		maxRate = baseRate
	} else {
		r.note("fixed rate %.0f rps misses the limits: %s", baseRate, why)
	}
	for _, rate := range ladderRates {
		if maxRate < baseRate {
			break
		}
		reqs, err := genRequests(vectors, rng, int(rate*rungShare*total.Seconds()))
		if err != nil {
			return nil, err
		}
		obs, _ := g.openLoop(s.url, reqs, rate)
		tally(r, obs)
		checked = append(checked, obs...)
		ok, why := rungPasses(obs)
		r.note("rung %.0f rps (%d requests): pass=%v, %s", rate, len(obs), ok, why)
		if !ok {
			break
		}
		maxRate = rate
	}
	r.add("max_rate_rps", "rps", maxRate)

	err = s.close()
	s = nil
	if err != nil {
		return nil, err
	}
	if err := attackProbe(r, c.seed, spans); err != nil {
		return nil, err
	}
	obs, err := tracedServe(r, netw, vectors, rng, 0.4*total.Seconds(), spans)
	if err != nil {
		return nil, err
	}
	checked = append(checked, obs...)
	tEvals, _ := byKind(obs, lat)
	r.layers["bench.trace_overhead"] = ratio(median(tEvals), median(evals))
	r.addTiming("traced.evaluate", "ms", 0.99, tEvals)

	if err := replayDispatch(r, serveCase, c.seed, spans); err != nil {
		return nil, err
	}
	if err := checkServed(r, checked, rng); err != nil {
		return nil, err
	}
	self, err := spans.finish(c.spans, c.label)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	r.noteSelfTimes(self)
	return r, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
