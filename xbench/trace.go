package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans stay in memory while the run
// measures and are written out once it ends.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index of the enclosing span, -1 for a root
	qid        int32 // the query (or request) the span belongs to
}

// tracer records spans from the benchmark's own code, around its calls
// into each layer's public functions. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, parent, qid int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), end: -1, parent: parent, qid: qid})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = t.now()
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, start, end time.Time, parent, qid int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(start.Sub(t.epoch)),
		end: int64(end.Sub(t.epoch)), parent: parent, qid: qid})
	return int32(len(t.spans) - 1)
}

// layerTime is the aggregate of every span of one name.
type layerTime struct {
	calls  int
	selfNs int64
	wallNs int64
}

func (l layerTime) meanSelfMs() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.selfNs) / 1e6 / float64(l.calls)
}

// selfTimes aggregates per span name the self time: a span's duration
// minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string]layerTime {
	kids := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		if s.end < s.start {
			continue // never closed: an error path abandoned it
		}
		var iv [][2]int64
		for _, k := range kids[i] {
			c := t.spans[k]
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.start
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		lt := out[s.name]
		lt.calls++
		lt.wallNs += s.end - s.start
		lt.selfNs += s.end - s.start - covered
		out[s.name] = lt
	}
	return out
}

// traceEvent is one Chrome trace-event ("X" = complete event), the JSON
// format Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span as Chrome trace-event JSON to path, one
// thread track per query.
func (t *tracer) writeChrome(path, process string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString("{\"traceEvents\":[\n")
	enc.Encode(traceEvent{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}})
	for _, s := range t.spans {
		if s.end < s.start {
			continue
		}
		args := map[string]any{"qid": s.qid}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		w.WriteString(",")
		cat, _, _ := strings.Cut(s.name, ".")
		enc.Encode(traceEvent{Name: s.name, Cat: cat, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.qid, Args: args})
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
