package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// spanRec is one span of the traced run: a call the benchmark made into
// the engine, or an engine phase span imported from core.Options.Trace.
// Spans of one operation share Op; Parent is 0 for an operation's root.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Note   string `json:"note,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End−Start minus the time its children cover
}

// recorder keeps the traced run's spans in memory until the run ends.
// All methods are safe on a nil recorder, which records nothing, so the
// untraced path calls them unguarded.
type recorder struct {
	base time.Time

	mu    sync.Mutex
	ids   int64
	ops   int64
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// newOp returns a fresh operation ID.
func (r *recorder) newOp() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ids++
	return r.ids
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	r   *recorder
	rec spanRec
}

// begin starts a span of operation op under parent (nil for an
// operation's root).
func (r *recorder) begin(op int64, parent *openSpan, name, note string) *openSpan {
	if r == nil {
		return nil
	}
	return &openSpan{r: r, rec: spanRec{
		ID: r.newID(), Parent: parent.id(), Op: op, Name: name, Note: note,
		Start: int64(time.Since(r.base)),
	}}
}

func (s *openSpan) id() int64 {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

// end closes the span and keeps it.
func (s *openSpan) end() {
	if s == nil {
		return
	}
	s.rec.End = int64(time.Since(s.r.base))
	s.r.add(s.rec)
}

func (r *recorder) add(rec spanRec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, rec)
}

// importTrace copies an engine trace's spans into operation op under
// parent. obs spans carry a depth but no parent, so a span's parent is
// taken to be the latest-started span one level up whose interval
// contains it; where segment pipelines run concurrently that choice is
// approximate.
func (r *recorder) importTrace(op int64, parent *openSpan, tr *obs.Trace) {
	if r == nil || tr == nil {
		return
	}
	type imported struct {
		id         int64
		start, end time.Time
	}
	byDepth := map[int][]imported{}
	for _, sp := range tr.Spans() {
		par := parent.id()
		if sp.Depth > 0 {
			ups := byDepth[sp.Depth-1]
			for i := len(ups) - 1; i >= 0; i-- {
				if !ups[i].start.After(sp.Start) && !ups[i].end.Before(sp.End) {
					par = ups[i].id
					break
				}
			}
		}
		id := r.newID()
		byDepth[sp.Depth] = append(byDepth[sp.Depth], imported{id, sp.Start, sp.End})
		r.add(spanRec{
			ID: id, Parent: par, Op: op, Name: sp.Name,
			Start: int64(sp.Start.Sub(r.base)), End: int64(sp.End.Sub(r.base)),
		})
	}
}

// fillSelf computes every span's self time: its duration minus the
// union of its children's intervals, clipped to the span.
func (r *recorder) fillSelf() {
	children := map[int64][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeFile writes the spans as JSON lines, in start order.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fillSelf()
	sort.SliceStable(r.spans, func(a, b int) bool { return r.spans[a].Start < r.spans[b].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
