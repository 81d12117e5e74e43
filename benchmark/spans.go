package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// spanKind names a call a driver makes into a layer. Spans are recorded
// here, round the calls; spans inside the layers are a later change.
type spanKind uint8

const (
	spOp spanKind = iota // one whole op of the workload, parent of the op's other spans
	spSignal
	spBroadcast
	spWait
	spWaitCtx
	spCancel
	spPut
	spGet
	spRun
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "Cond.Signal", "Cond.Broadcast", "Cond.Wait", "CondVar.WaitLockedCtx",
	"cancel", "Queue.Put", "Queue.Get", "Benchmark.Run",
}

type span struct {
	kind       spanKind
	op         int64 // the op this call served; spans of one op share it
	start, end int64 // nanotime
}

// laneSpans bounds a lane's memory: the ring keeps the slice's last spans.
const laneSpans = 1 << 14

// lane is one goroutine's span ring. A nil lane is tracing switched off:
// it records nothing and reads no clock.
type lane struct {
	buf []span
	n   int
	_   [4]uint64 // a cache line per lane: n moves on every span
}

func (l *lane) now() int64 {
	if l == nil {
		return 0
	}
	return nanotime()
}

func (l *lane) add(k spanKind, op, start int64) {
	if l == nil {
		return
	}
	l.buf[l.n%laneSpans] = span{k, op, start, nanotime()}
	l.n++
}

// spanSet holds the lanes of one traced system, one per driver goroutine.
type spanSet struct{ lanes []*lane }

func newSpanSet(goroutines int) *spanSet {
	s := &spanSet{lanes: make([]*lane, goroutines)}
	for i := range s.lanes {
		s.lanes[i] = &lane{buf: make([]span, laneSpans)}
	}
	return s
}

func (s *spanSet) lane(i int) *lane {
	if s == nil {
		return nil
	}
	return s.lanes[i]
}

// reset forgets the previous slice's spans; call while no driver runs.
func (s *spanSet) reset() {
	if s == nil {
		return
	}
	for _, l := range s.lanes {
		l.n = 0
	}
}

// each visits the retained spans with the lane they came from.
func (s *spanSet) each(f func(g, i int, sp span)) {
	for g, l := range s.lanes {
		for i := max(0, l.n-laneSpans); i < l.n; i++ {
			f(g, i, l.buf[i%laneSpans])
		}
	}
}

// durations of the retained spans of one kind, in ns.
func (s *spanSet) durations(k spanKind) dist {
	var d dist
	s.each(func(_, _ int, sp span) {
		if sp.kind == k {
			d.samples = append(d.samples, sp.end-sp.start)
		}
	})
	return d
}

// selfTimes of the retained op spans: each op's duration minus the part of
// it that the op's other spans, on any lane, cover.
func (s *spanSet) selfTimes() dist {
	type iv struct{ a, b int64 }
	children := map[int64][]iv{}
	var ops []span
	s.each(func(_, _ int, sp span) {
		if sp.kind == spOp {
			ops = append(ops, sp)
		} else {
			children[sp.op] = append(children[sp.op], iv{sp.start, sp.end})
		}
	})
	var d dist
	for _, op := range ops {
		ivs := children[op.op]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, edge := int64(0), op.start
		for _, c := range ivs {
			a, b := max(c.a, edge), min(c.b, op.end)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		d.samples = append(d.samples, op.end-op.start-covered)
	}
	return d
}

// summary is one line per span kind seen: count, median duration, and for
// ops the median self time.
func (s *spanSet) summary() []string {
	var out []string
	for k := spanKind(0); k < numSpanKinds; k++ {
		d := s.durations(k)
		if d.count() == 0 {
			continue
		}
		line := fmt.Sprintf("span %-22s n=%-7d p50=%.0f ns", spanNames[k], d.count(), d.quantile(0.5))
		if k == spOp {
			self := s.selfTimes()
			line += fmt.Sprintf("  self p50=%.0f ns", self.quantile(0.5))
		}
		out = append(out, line)
	}
	return out
}

// write stores the retained spans as JSON lines. An op span's id is
// "op.<op>", which is also the parent of every other span of that op.
func (s *spanSet) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	s.each(func(g, i int, sp span) {
		id, parent := fmt.Sprintf("g%d.%d", g, i), fmt.Sprintf("op.%d", sp.op)
		if sp.kind == spOp {
			id, parent = parent, ""
		}
		fmt.Fprintf(w, "{\"id\":%q,\"parent\":%q,\"op\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			id, parent, sp.op, spanNames[sp.kind], sp.start, sp.end)
	})
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
