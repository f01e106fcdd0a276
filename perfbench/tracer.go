package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans of one op
// share op; parent is the index of the enclosing span, or -1 for a root.
type span struct {
	name       string
	op, parent int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory for the length of a run. A nil *tracer is
// the untraced mode: every method is a no-op, so the measured code paths
// are the same in both modes apart from the recording itself.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextOp int
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// newOp allocates an op id shared by the spans of one operation.
func (t *tracer) newOp() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span and returns its index, for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	at := since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: at, end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	at := since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = at
}

// call wraps fn in a span.
func (t *tracer) call(name string, op, parent int, fn func()) {
	id := t.begin(name, op, parent)
	fn()
	t.end(id)
}

// selfTimes returns every closed span's self time: its duration minus the
// part of its interval that its children cover. Children may overlap (the
// replications of one engine batch run concurrently), so the covered part
// is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		type iv struct{ lo, hi time.Duration }
		var cover []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if spans[c].end >= 0 && hi > lo {
				cover = append(cover, iv{lo, hi})
			}
		}
		sort.Slice(cover, func(a, b int) bool { return cover[a].lo < cover[b].lo })
		covered, reach := time.Duration(0), s.start
		for _, c := range cover {
			if c.hi <= reach {
				continue
			}
			covered += c.hi - max(c.lo, reach)
			reach = c.hi
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerTimes groups self times in milliseconds by span name.
func (t *tracer) layerTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	out := make(map[string][]float64)
	for i, s := range t.spans {
		if s.end >= 0 {
			out[s.name] = append(out[s.name], ms(self[i]))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opTimes returns the self time in milliseconds of the spans called name,
// keyed by op id, for pairing the layers of one op.
func (t *tracer) opTimes(name string) map[int]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	out := make(map[int]float64)
	for i, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out[s.op] += ms(self[i])
		}
	}
	return out
}

// now and since are the benchmark's wall-clock reads: timing real work is
// its purpose.
func now() time.Time { return time.Now() } //lint:allow nowallclock the benchmark times real work

func since(t time.Time) time.Duration { return time.Since(t) } //lint:allow nowallclock the benchmark times real work
