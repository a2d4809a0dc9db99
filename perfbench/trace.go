package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one call into a layer, timed around the call from the
// benchmark's side. Spans are kept in memory and written out when the
// run ends.
type span struct {
	// Op is the operation the span belongs to: 0,1,2,… for measured
	// operations, -1,-2,… for the set-up repetitions.
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span times: the part of its name before the
// first dot ("fed.query.topk-actors" → "fed").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans from the single client goroutine. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(op int, name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Op: op, Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// add records a span whose bounds were observed rather than wrapped:
// the time from an append until a consumer showed the block.
func (t *tracer) add(op int, name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Op: op, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent})
}

// durations returns the durations of the spans with the given name,
// from the set-up repetitions or from the measured operations.
func (t *tracer) durations(name string, setup bool) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (s.Op < 0) == setup {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Children of one parent may overlap (consumers catch
// up concurrently), so the covered part is the union of their
// intervals, clipped to the parent.
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(t.spans[k].Start, s.Start), min(t.spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64 = 0, 0, -1
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerSelf sums self time per layer over the measured operations.
func (t *tracer) layerSelf() map[string]time.Duration {
	self := t.selfTimes()
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.Op >= 0 {
			out[s.layer()] += self[i]
		}
	}
	return out
}

// writeTable prints the per-layer table: for each span name its count,
// nearest-rank p50/p99 and self time, measured operations only. Every
// line starts with "# ", like every other line before the result.
func (t *tracer) writeTable(w io.Writer, ops int) {
	self := t.selfTimes()
	type row struct {
		name  string
		durs  []time.Duration
		total time.Duration
	}
	rows := map[string]*row{}
	var names []string
	for i, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
			names = append(names, s.Name)
		}
		r.durs = append(r.durs, s.dur())
		r.total += self[i]
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %-28s %8s %12s %12s %14s\n", "span", "count", "p50_ms", "p99_ms", "self_ms_per_op")
	for _, n := range names {
		r := rows[n]
		p50, p99 := nearestRank(r.durs, 50), nearestRank(r.durs, 99)
		fmt.Fprintf(w, "# %-28s %8d %12.4f %12.4f %14.4f\n", n, len(r.durs), ms(p50.Value), ms(p99.Value), ms(r.total)/float64(max(ops, 1)))
	}
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
