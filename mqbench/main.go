// Command mqbench is minequery's benchmark: three seeded workloads over
// the public minequery API and the internal/server and internal/cluster
// surfaces, each run by one closed-loop client, timed end to end per
// operation type, checked against computations made apart from the
// timed path, and (with --trace 1) broken down per layer.
//
//	go build -o mqbench . && ./mqbench --workload mine-read --seed 1 --seconds 10 --trace 0
//	./mqbench --steady 10 --seconds 10   # every workload, seeds 1..10, median and quartiles
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// setupReps is how many times each run builds its fixture; setup_s is
// the median, and the last fixture is the one measured.
const setupReps = 5

// warmupRounds run before timing so caches fill and lazy set-up
// finishes; they are neither timed nor counted.
const warmupRounds = 2

// workload is one seeded benchmark workload.
type workload interface {
	// setup builds the fixture from the generated inputs; it is timed.
	setup(tr *tracer) error
	// teardown discards a fixture before the next setup.
	teardown()
	// check verifies outputs against the benchmark's own computations,
	// outside the timed phase, and records what each timed operation
	// must return.
	check(x *runner) error
	// round runs one round of the operation mix.
	round(r int, x *runner) error
	// finish runs the end-of-run checks.
	finish(x *runner) error
	// startPhase/endPhase bracket a traced phase; layers reports the
	// per-layer metrics gathered over the traced phases.
	startPhase()
	endPhase(ops int)
	layers(m layerMetrics)
	// extra lists workload-specific figures printed for reference.
	extra(x *runner) []figure
}

type figure struct {
	name  string
	value float64
	unit  string
}

// endToEnd is every end-to-end metric, in BENCHMARK.json order; each
// workload's mix includes every operation type named here.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"live_heap_mb", "MB"},
	{"point_p50_ms", "ms"}, {"prepared_p50_ms", "ms"}, {"scan_p50_ms", "ms"},
	{"filter_p50_ms", "ms"}, {"agg_p50_ms", "ms"},
}

// perLayer is every per-layer metric and its unit; a layer a workload
// does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"sqlparse.parse_us", "us"}, {"core.rewrite_us", "us"}, {"opt.optimize_us", "us"},
	{"core.envelope_cache_hit_ratio", "ratio"}, {"core.envelope_admit_ratio", "ratio"},
	{"exec.scan_self_ms", "ms"}, {"exec.filter_self_ms", "ms"}, {"exec.predict_self_ms", "ms"},
	{"exec.agg_self_ms", "ms"}, {"storage.seq_pages_per_query", "count"},
	{"storage.rand_pages_per_query", "count"}, {"storage.tuples_per_row_returned", "ratio"},
	{"storage.alloc_bytes_per_query", "B"}, {"go.gc_cycles_per_kop", "count"},
	{"vec.columnar_scan_ratio", "ratio"}, {"agg.merges_per_query", "count"},
	{"wal.write_us_per_stmt", "us"}, {"wal.sync_us_per_stmt", "us"}, {"wal.syncs_per_stmt", "count"},
	{"wal.bytes_per_row", "B"}, {"standing.evals_per_row", "count"},
	{"standing.model_calls_per_row", "count"}, {"standing.recompiles", "count"},
	{"mining.train_ms", "ms"}, {"core.envelope_derive_ms", "ms"}, {"storage.load_s", "s"},
	{"stats.analyze_s", "s"}, {"btree.index_build_s", "s"}, {"server.handler_us", "us"},
	{"server.transport_us", "us"}, {"server.response_bytes", "B"},
	{"server.prepared_hit_ratio", "ratio"}, {"cluster.shard_rpc_us", "us"},
	{"cluster.shards_queried_per_query", "count"}, {"cluster.shards_pruned_per_query", "count"},
	{"cluster.merge_us", "us"}, {"trace.overhead_pct", "%"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "mine-read, write-stream or fleet-serve")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	steady := flag.Int("steady", 0, "run every workload (or --workload) this many times and print medians and quartiles")
	flag.Parse()
	if *steady > 0 {
		if err := steadiness(*name, *steady, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "mqbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mqbench:", err)
		os.Exit(1)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mqbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
}

// scanDOP is the scan parallelism of an engine when engines scan
// concurrently for one request: the CPU count, capped at two so runs on
// larger machines stay comparable, shared out so that all scan workers
// together never outnumber the CPUs.
func scanDOP(engines int) int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	if n/engines < 1 {
		return 1
	}
	return n / engines
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "mine-read":
		return newMineRead(seed), nil
	case "write-stream":
		return newWriteStream(seed), nil
	case "fleet-serve":
		return newFleetServe(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want mine-read, write-stream or fleet-serve)", name)
}

func run(name string, seed int64, seconds int, traced bool) (*resultOut, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
		}
		// Only the kept fixture's set-up is traced.
		tr.on.Store(traced && i == setupReps-1)
		t0 := time.Now()
		if err := w.setup(tr); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		tr.on.Store(false)
	}
	defer w.teardown()

	check := newRunner(tr)
	if err := w.check(check); err != nil {
		return nil, fmt.Errorf("%s check: %w", name, err)
	}
	warm := newRunner(tr)
	for r := 0; r < warmupRounds; r++ {
		if err := w.round(r, warm); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", name, err)
		}
	}
	heap := liveHeapMB()

	x := newRunner(tr)
	budget := time.Duration(seconds) * time.Second
	next := warmupRounds
	// Completed operations and busy seconds of the traced ([1]) and
	// untraced ([0]) phases, for the tracing overhead.
	var ops, busy [2]float64
	phase := func(d time.Duration, on bool) error {
		startOps, startBusy := x.completed(), x.busy
		if on {
			w.startPhase()
			tr.on.Store(true)
		}
		err := runRounds(d, func() error {
			err := w.round(next, x)
			next++
			return err
		})
		tr.on.Store(false)
		if on {
			w.endPhase(x.completed() - startOps)
		}
		i := 0
		if on {
			i = 1
		}
		ops[i] += float64(x.completed() - startOps)
		busy[i] += (x.busy - startBusy).Seconds()
		return err
	}
	if traced {
		// ABBA quarters cancel linear drift out of the overhead estimate.
		for _, on := range []bool{true, false, false, true} {
			if err := phase(budget/4, on); err != nil {
				return nil, err
			}
		}
	} else if err := phase(budget, false); err != nil {
		return nil, err
	}
	if err := w.finish(x); err != nil {
		return nil, fmt.Errorf("%s final check: %w", name, err)
	}

	wrong := check.wrong + warm.wrong + x.wrong
	out := &resultOut{Correct: wrong == 0, Attempted: x.attempted, Failed: x.failed, Metrics: map[string]metricOut{}}
	printReport(name, seed, x, w)
	if traced {
		m := layerMetrics{}
		w.layers(m)
		if traced := ratio(ops[1], busy[1]); traced > 0 {
			m["trace.overhead_pct"] = 100 * (ratio(ops[0], busy[0])/traced - 1)
		}
		for _, l := range perLayer {
			out.Metrics[l.name] = metricOut{m[l.name], l.unit}
			fmt.Printf("  layer %-34s %14.4f %s\n", l.name, m[l.name], l.unit)
		}
		if path, err := tr.write(".bench_build/traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed)); err == nil {
			fmt.Printf("  spans written to %s\n", path)
		} else {
			fmt.Fprintln(os.Stderr, "mqbench: writing spans:", err)
		}
		return out, nil
	}
	vals := map[string]float64{
		"setup_s":      medianFloat(setups),
		"ops_per_s":    ratio(float64(x.completed()), x.busy.Seconds()),
		"live_heap_mb": heap,
	}
	for _, k := range []string{"point", "prepared", "scan", "filter", "agg"} {
		vals[k+"_p50_ms"] = summarize(x.lat[k]).p50
	}
	for _, e := range endToEnd {
		out.Metrics[e.name] = metricOut{vals[e.name], e.unit}
		fmt.Printf("  %-22s %12.4f %s\n", e.name, vals[e.name], e.unit)
	}
	return out, nil
}
