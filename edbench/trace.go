package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/edsec/edattack"
	"github.com/edsec/edattack/internal/telemetry"
)

// spanLog keeps every span of a traced run in memory — the program's own
// (core.*, milp.*) and the benchmark's (bench.*), all emitted through one
// tracer — and writes them out when the run ends. The tracer serializes
// its writes, so the buffer needs no lock of its own; it is read only after
// every traced call has returned.
type spanLog struct {
	buf    bytes.Buffer
	tracer *edattack.Tracer
	nextOp int
}

func newSpanLog() *spanLog {
	l := &spanLog{}
	l.tracer = edattack.NewTracer(&l.buf)
	return l
}

// start opens a benchmark span around one call into a layer. Every span
// of one operation carries the same op attribute; program spans emitted
// inside it are linked to it by finish.
func (l *spanLog) start(name string, attrs ...any) *edattack.Span {
	if l == nil {
		return nil
	}
	l.nextOp++
	sp := l.tracer.Start(name)
	sp.SetAttr("op", l.nextOp)
	for i := 0; i+1 < len(attrs); i += 2 {
		sp.SetAttr(attrs[i].(string), attrs[i+1])
	}
	return sp
}

type spanRec struct {
	telemetry.SpanEvent
	begin, end time.Time
	children   time.Duration
}

// finish links each program root span to the benchmark span whose interval
// holds it (the attack workloads run one solve at a time, so containment is
// unambiguous), gives it the operation's op id, writes the spans as JSON
// Lines to dir/label.jsonl, and returns self time per span name: a span's
// duration minus what its child spans cover.
func (l *spanLog) finish(dir, label string) (map[string]time.Duration, error) {
	var recs []*spanRec
	sc := bufio.NewScanner(bytes.NewReader(l.buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		r := &spanRec{}
		if err := json.Unmarshal(sc.Bytes(), &r.SpanEvent); err != nil {
			return nil, fmt.Errorf("span line %q: %w", sc.Text(), err)
		}
		t, err := time.Parse(time.RFC3339Nano, r.Start)
		if err != nil {
			return nil, fmt.Errorf("span start %q: %w", r.Start, err)
		}
		r.begin, r.end = t, t.Add(time.Duration(r.DurUS)*time.Microsecond)
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	byID := map[uint64]*spanRec{}
	var bench []*spanRec
	for _, r := range recs {
		byID[r.ID] = r
		if strings.HasPrefix(r.Name, "bench.") {
			bench = append(bench, r)
		}
	}
	const slack = 100 * time.Microsecond
	for _, r := range recs {
		if r.Parent != 0 || strings.HasPrefix(r.Name, "bench.") {
			continue
		}
		for _, b := range bench {
			if !r.begin.Before(b.begin.Add(-slack)) && !r.end.After(b.end.Add(slack)) {
				r.Parent = b.ID
				break
			}
		}
	}
	self := map[string]time.Duration{}
	for _, r := range recs {
		if p := byID[r.Parent]; p != nil {
			p.children += time.Duration(r.DurUS) * time.Microsecond
		}
	}
	for _, r := range recs {
		root := r
		for root.Parent != 0 && byID[root.Parent] != nil {
			root = byID[root.Parent]
		}
		if op, ok := root.Attrs["op"]; ok {
			if r.Attrs == nil {
				r.Attrs = map[string]any{}
			}
			r.Attrs["op"] = op
		}
		self[r.Name] += max(time.Duration(r.DurUS)*time.Microsecond-r.children, 0)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, label+".jsonl"))
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(&r.SpanEvent); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return self, f.Close()
}

// noteSelfTimes adds the self-time table of a traced run to the report.
func (r *report) noteSelfTimes(self map[string]time.Duration) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%.3fs", n, self[n].Seconds())
	}
	r.note("self time by span: %s", strings.Join(parts, " "))
}

// histSum is the sum of a registry histogram (0 when absent).
func histSum(s telemetry.Snapshot, name string) float64 {
	return s.Histograms[name].Sum
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
