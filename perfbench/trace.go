package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. Ops are root spans (Parent 0); the calls an op
// makes — HTTP requests, or solver init and Next calls — are its children.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID, so an op can hand its ID to its children
// before its own span is complete.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) add(id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	t.mu.Unlock()
}

// byName returns the durations of the spans called name, in ms.
func (t *tracer) byName(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// opSelfTimes returns, for every root span, its duration not covered by
// its children, in µs: the harness's own time per op.
func (t *tracer) opSelfTimes() []float64 {
	kids := map[int64][]interval{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Parent == 0 {
			out = append(out, us(selfTime(interval{s.Start, s.End}, kids[s.ID])))
		}
	}
	return out
}

// write saves the spans as JSON lines under .bench_build in the working
// directory and returns the file name.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Join(dir, fmt.Sprintf("perfbench-spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(name)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return name, f.Close()
}

// writeSpans saves the spans and notes where they went.
func writeSpans(rep *report, t *tracer, workload string, seed int64) {
	if name, err := t.write(workload, seed); err != nil {
		rep.note("spans not written: %v", err)
	} else {
		rep.note("spans written to %s", name)
	}
}
