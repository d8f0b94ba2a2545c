package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// wrongAnswer marks an output that disagrees with the benchmark's own
// computation: the run reports correct=false.
type wrongAnswer struct{ msg string }

func (w *wrongAnswer) Error() string { return w.msg }

func wrongf(format string, args ...any) error { return &wrongAnswer{fmt.Sprintf(format, args...)} }

// knownFault marks a mining read whose envelope-rewritten answer
// differs from the WithBaseline() answer: the operation is counted as
// failed, and correct stays true (it speaks of the operations that did
// not fail).
type knownFault struct{ msg string }

func (k *knownFault) Error() string { return k.msg }

// runner times operations of one closed-loop client and keeps the
// per-type latency samples, the counts and the verdict.
type runner struct {
	lat       map[string][]time.Duration
	busy      time.Duration // time spent inside completed operations
	attempted int
	failed    int
	wrong     int
	// reported dedupes stderr lines for repeated failures.
	reported map[string]bool
	tr       *tracer
}

func newRunner(tr *tracer) *runner {
	return &runner{lat: map[string][]time.Duration{}, reported: map[string]bool{}, tr: tr}
}

// time runs f as the timed part of one operation. Only f is timed:
// output checks run after it, with the clock stopped.
func (x *runner) time(kind string, f func() error) (time.Duration, error) {
	sp := x.tr.beginOp(kind)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	x.tr.end(sp)
	return d, err
}

// record files one finished operation: err is nil, a *knownFault, a
// *wrongAnswer, or the error the program returned.
func (x *runner) record(kind string, d time.Duration, err error) {
	x.attempted++
	var wa *wrongAnswer
	switch {
	case err == nil:
	case errors.As(err, &wa):
		x.wrong++
		x.report("wrong answer: " + err.Error())
	default:
		x.failed++
		x.report("failed " + kind + ": " + err.Error())
		return
	}
	x.lat[kind] = append(x.lat[kind], d)
	x.busy += d
}

// wrongAnswer files a failed output check that belongs to no single
// timed operation.
func (x *runner) wrongAnswer(err error) {
	x.wrong++
	x.report("wrong answer: " + err.Error())
}

func (x *runner) report(msg string) {
	if !x.reported[msg] {
		x.reported[msg] = true
		fmt.Fprintln(os.Stderr, "mqbench:", msg)
	}
}

func (x *runner) completed() int { return x.attempted - x.failed }

// summary is one operation type's latency distribution.
type summary struct {
	n          int
	p50, tail  float64 // ms
	tailPctile float64 // the percentile reported as tail, 0 when n < 40
}

// summarize reports the median and the highest percentile that still
// has at least ten samples beyond it (none below forty samples).
func summarize(ds []time.Duration) summary {
	if len(ds) == 0 {
		return summary{}
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	out := summary{n: len(s), p50: ms(median(s))}
	if len(s) >= 40 {
		for _, p := range []float64{99.9, 99, 95, 90, 75} {
			idx := int(math.Ceil(p/100*float64(len(s)))) - 1
			if len(s)-1-idx >= 10 {
				out.tail, out.tailPctile = ms(s[idx]), p
				break
			}
		}
	}
	return out
}

func median(s []time.Duration) time.Duration {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runRounds runs rounds of a workload for the given wall-clock budget:
// whole rounds only, so every run attempts the same operations in the
// same proportions.
func runRounds(budget time.Duration, round func() error) error {
	start := time.Now()
	for {
		if err := round(); err != nil {
			return err
		}
		if time.Since(start) >= budget {
			return nil
		}
	}
}
