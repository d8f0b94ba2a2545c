package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"minequery"
)

// fingerprint summarizes a row set by its first column (the row id):
// count, sum and sum of squares, so two answers with the same ids in
// any order compare equal.
type fingerprint struct {
	n          int
	sum, sumSq int64
}

func (f *fingerprint) add(id int64) {
	f.n++
	f.sum += id
	f.sumSq += id * id
}

func fpTuples(rows []minequery.Tuple) fingerprint {
	var f fingerprint
	for _, t := range rows {
		f.add(t[0].AsInt())
	}
	return f
}

func (f fingerprint) String() string { return fmt.Sprintf("%d rows (id sum %d)", f.n, f.sum) }

// readLayers accumulates the per-layer counters of embedded queries
// from Result.Analyze and Result.Stats, which the engine fills on every
// query while its default instrumentation is on.
type readLayers struct {
	queries                        int
	scanSelf, filterSelf, predSelf float64 // ms, summed
	aggSelf                        float64
	aggQueries                     int
	aggMerges                      int64
	seqPages, randPages, tuples    int64
	rowsOut                        int64
	envAdmitted, envPredicted      int64
	filterQueries, columnarFilters int
	allocBytes                     uint64
	gcCycles                       uint32
	ops                            int
	memBefore                      runtime.MemStats
	stageBefore, stageAfter        map[string][2]float64
}

// observe folds one traced query's report in; kind is the benchmark
// operation type.
func (l *readLayers) observe(kind string, res *minequery.Result) {
	if res == nil || res.Analyze == nil {
		return
	}
	l.queries++
	a := res.Analyze
	st := a.Stats
	l.seqPages += st.SeqPageReads
	l.randPages += st.RandPageReads
	l.tuples += st.TupleReads
	l.rowsOut += int64(len(res.Rows))
	if kind == "filter" {
		l.filterQueries++
		if res.StorageFormat == "columnar" {
			l.columnarFilters++
		}
	}
	if a.IsAggregate {
		l.aggQueries++
		l.aggMerges += a.AggMerges
	}
	for i, op := range a.Ops {
		// Self time: the operator's wall time minus its direct children's.
		self := op.Time
		for j := i + 1; j < len(a.Ops) && a.Ops[j].Depth > op.Depth; j++ {
			if a.Ops[j].Depth == op.Depth+1 {
				self -= a.Ops[j].Time
			}
		}
		ms := float64(self) / 1e6
		switch opClass(op.Op) {
		case "scan":
			l.scanSelf += ms
		case "filter":
			l.filterSelf += ms
		case "predict":
			l.predSelf += ms
			// Rows admitted by U_c reach the prediction join; the rows
			// the model then predicts c are what the nearest filter
			// above it keeps (the join's own count when no post-filter
			// is needed because the envelope is exact).
			if a.IsAggregate {
				break
			}
			l.envAdmitted += op.Rows
			kept := op.Rows
			for k := i - 1; k >= 0; k-- {
				if a.Ops[k].Depth < op.Depth {
					if opClass(a.Ops[k].Op) == "filter" {
						kept = a.Ops[k].Rows
					}
					break
				}
			}
			l.envPredicted += kept
		case "agg":
			l.aggSelf += ms
		}
	}
}

func opClass(desc string) string {
	switch {
	case strings.HasPrefix(desc, "SeqScan"), strings.HasPrefix(desc, "IndexSeek"),
		strings.HasPrefix(desc, "IndexUnion"), strings.HasPrefix(desc, "ConstantScan"):
		return "scan"
	case strings.HasPrefix(desc, "Filter"):
		return "filter"
	case strings.HasPrefix(desc, "PredictionJoin"):
		return "predict"
	case strings.HasPrefix(desc, "HashAgg"):
		return "agg"
	}
	return "other"
}

// startPhase and endPhase bracket a traced phase with the runtime's
// allocation and GC counters and the engine's stage histogram.
func (l *readLayers) startPhase(reg *minequery.MetricsRegistry) {
	runtime.ReadMemStats(&l.memBefore)
	l.stageBefore = stageSums(reg)
}

func (l *readLayers) endPhase(reg *minequery.MetricsRegistry, ops int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	l.allocBytes += m.TotalAlloc - l.memBefore.TotalAlloc
	l.gcCycles += m.NumGC - l.memBefore.NumGC
	l.ops += ops
	after := stageSums(reg)
	if l.stageAfter == nil {
		l.stageAfter = map[string][2]float64{}
	}
	for k, v := range after {
		b := l.stageBefore[k]
		acc := l.stageAfter[k]
		l.stageAfter[k] = [2]float64{acc[0] + v[0] - b[0], acc[1] + v[1] - b[1]}
	}
}

// stageMeanUS is the mean time of one query stage ("parse", "rewrite",
// "optimize") over the traced phases, from the engine's
// minequery_query_stage_seconds histogram.
func (l *readLayers) stageMeanUS(stage string) float64 {
	v := l.stageAfter[stage]
	return ratio(v[0], v[1]) * 1e6
}

// stageSums reads sum and count of every stage of the engine's
// minequery_query_stage_seconds histogram from its exposition text.
func stageSums(reg *minequery.MetricsRegistry) map[string][2]float64 {
	out := map[string][2]float64{}
	if reg == nil {
		return out
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return out
	}
	addStageSums(out, buf.Bytes())
	return out
}

func addStageSums(out map[string][2]float64, text []byte) {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		var slot int
		switch {
		case strings.HasPrefix(line, "minequery_query_stage_seconds_sum{"):
			slot = 0
		case strings.HasPrefix(line, "minequery_query_stage_seconds_count{"):
			slot = 1
		default:
			continue
		}
		i := strings.Index(line, `stage="`)
		if i < 0 {
			continue
		}
		rest := line[i+len(`stage="`):]
		j := strings.IndexByte(rest, '"')
		k := strings.LastIndexByte(line, ' ')
		if j < 0 || k < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[k+1:], 64)
		if err != nil {
			continue
		}
		acc := out[rest[:j]]
		acc[slot] += v
		out[rest[:j]] = acc
	}
}

// metrics renders the read-path per-layer metrics.
func (l *readLayers) metrics(m layerMetrics) {
	q := float64(l.queries)
	m["exec.scan_self_ms"] = ratio(l.scanSelf, q)
	m["exec.filter_self_ms"] = ratio(l.filterSelf, q)
	m["exec.predict_self_ms"] = ratio(l.predSelf, q)
	m["exec.agg_self_ms"] = ratio(l.aggSelf, float64(l.aggQueries))
	m["agg.merges_per_query"] = ratio(float64(l.aggMerges), float64(l.aggQueries))
	m["core.envelope_admit_ratio"] = ratio(float64(l.envPredicted), float64(l.envAdmitted))
	m["storage.seq_pages_per_query"] = ratio(float64(l.seqPages), q)
	m["storage.rand_pages_per_query"] = ratio(float64(l.randPages), q)
	m["storage.tuples_per_row_returned"] = ratio(float64(l.tuples), float64(l.rowsOut))
	m["storage.alloc_bytes_per_query"] = ratio(float64(l.allocBytes), float64(l.ops))
	m["go.gc_cycles_per_kop"] = 1000 * ratio(float64(l.gcCycles), float64(l.ops))
	m["vec.columnar_scan_ratio"] = ratio(float64(l.columnarFilters), float64(l.filterQueries))
	m["sqlparse.parse_us"] = l.stageMeanUS("parse")
	m["core.rewrite_us"] = l.stageMeanUS("rewrite")
	m["opt.optimize_us"] = l.stageMeanUS("optimize")
}
