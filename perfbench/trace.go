package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the in-memory span log; later spans are only counted as
// dropped (the self-time table covers the kept ones).
const maxSpans = 300000

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branches.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	nextID  int64
	spans   []span
	dropped int64
	// byReq links a handler span to the client span of the same request.
	byReq map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byReq: make(map[string]int64)}
}

// add records a finished span and returns its ID (0 when untraced).
func (t *tracer) add(name string, parent int64, req string, start, end time.Time) int64 {
	id := t.reserve()
	t.finish(id, name, parent, req, start, end)
	return id
}

// reserve hands out a span ID before the span ends, so children recorded
// while it runs can point at it; finish records it under that ID.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) finish(id int64, name string, parent int64, req string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// linkReq registers the client span of a request; resolveLinks then
// re-parents that request's parentless spans (its handler span) under it.
func (t *tracer) linkReq(req string, id int64) {
	if t == nil || req == "" {
		return
	}
	t.mu.Lock()
	t.byReq[req] = id
	t.mu.Unlock()
}

func (t *tracer) resolveLinks() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent == 0 && s.Req != "" {
			if p, ok := t.byReq[s.Req]; ok && p != s.ID {
				s.Parent = p
			}
		}
	}
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover (overlapping
// children — parallel shards — are counted once).
func (t *tracer) selfTimes() []selfRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rows := map[string]*selfRow{}
	var iv [][2]int64
	for _, s := range t.spans {
		iv = iv[:0]
		for _, ci := range children[s.ID] {
			c := t.spans[ci]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curLo, curHi int64
		for k, x := range iv {
			if k == 0 || x[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		covered += curHi - curLo
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.Count++
		r.TotalMs += ms(float64(d))
		r.SelfMs += ms(float64(d - covered))
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// printSelfTimes writes the self-time table.
func printSelfTimes(w io.Writer, rows []selfRow) {
	var total float64
	for _, r := range rows {
		total += r.SelfMs
	}
	fmt.Fprintf(w, "%-28s %9s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %9d %12.1f %12.1f %6.1f%%\n",
			r.Name, r.Count, r.TotalMs, r.SelfMs, 100*ratio(r.SelfMs, total))
	}
}

// writeFile dumps the kept spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
