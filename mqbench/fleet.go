package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"

	"minequery"
	"minequery/internal/cluster"
	"minequery/internal/server"
)

// fleet-serve: an in-process coordinator in front of two minequeryd
// shard servers over loopback HTTP, one client connection in a closed
// loop. Rows are range-sharded on income; every shard holds the same
// ix_age_income index a single node would. The mix: ad-hoc mining
// point queries with distinct texts that the envelope prunes to one
// shard, prepared executes of the same kind of query, an unpruned
// scatter scan, an unpruned disjunctive data filter, and a GROUP BY
// with partial-aggregate pushdown.
const (
	fleetRows = 40_000
	// shardBound splits income: shard 0 holds income < 50, shard 1 the
	// rest, so the vip envelope (income >= 92) prunes shard 0.
	shardBound = 50
)

type fleetServe struct {
	rows   []row
	filter disjunctFilter
	vis    [2]int64

	planner *minequery.Engine
	shards  []*minequery.Engine
	coord   *cluster.Coordinator
	url     string
	closers []func()
	client  *http.Client
	tr      *tracer
	reg     *minequery.MetricsRegistry
	// respBytes counts the coordinator's response bytes while tracing.
	respBytes atomic.Int64

	// pointSQL is both the prepared statement and, with a distinct id
	// bound appended, every ad-hoc point query.
	pointSQL, scanSQL, filterQ, aggSQL string
	stmtID                             string
	adhoc                              int
	want                               map[string]fingerprint
	wantAgg                            map[string][2]int64
	baseMismatch                       map[string]string

	// Traced-phase accumulators.
	countersBefore       cluster.Counters
	queries, queried     int64
	pruned, aggMerges    int64
	aggQueries           int64
	shardStatsBefore     [2]shardStats
	prepHits, prepLookup int64
	envHits, envLookup   int64
	stageBefore, stages  map[string][2]float64
	// layer brackets the traced phases with the runtime's counters.
	layer readLayers
}

func newFleetServe(seed int64) *fleetServe {
	r := rand.New(rand.NewSource(seed))
	w := &fleetServe{rows: genRows(r, fleetRows, 0), filter: genFilter(r)}
	w.vis = [2]int64{int64(r.Intn(visitsMax + 1)), int64(r.Intn(visitsMax + 1))}
	return w
}

func shardOf(rw row) int {
	if *rw.income < shardBound {
		return 0
	}
	return 1
}

// fleetEngine builds one node: its customers rows, the shared training
// sample, the models trained on it (identical on every node, so the
// coordinator's envelope prunes validate), and the index.
func (w *fleetServe) fleetEngine(tr *tracer, rows []row) (*minequery.Engine, error) {
	eng := minequery.New()
	eng.SetDOP(scanDOP(2))
	if err := eng.CreateTable("customers", customerSchema()); err != nil {
		return nil, err
	}
	if err := loadSample(eng, tr, w.rows); err != nil {
		return nil, err
	}
	if err := trainTree(eng, tr, "seg_tree", "training"); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return eng, nil
	}
	if err := tr.timed("storage.load", func() error { return eng.InsertBatch("customers", tuples(rows)) }); err != nil {
		return nil, err
	}
	if err := tr.timed("btree.index_build", func() error {
		return eng.CreateIndex("ix_age_income", "customers", "age", "income")
	}); err != nil {
		return nil, err
	}
	return eng, tr.timed("stats.analyze", func() error { return eng.Analyze("customers") })
}

func (w *fleetServe) setup(tr *tracer) error {
	w.tr = tr
	parts := make([][]row, 2)
	for _, rw := range w.rows {
		parts[shardOf(rw)] = append(parts[shardOf(rw)], rw)
	}
	var addrs []string
	w.shards = nil
	for i, part := range parts {
		eng, err := w.fleetEngine(tr, part)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("cluster.shard%d", i)
		ts := httptest.NewServer(tr.handler(func(r *http.Request) string {
			if r.URL.Path == "/v1/shard-exec" {
				return name
			}
			return name + ".other"
		}, server.New(eng, server.Config{}).Handler(), nil))
		w.closers = append(w.closers, ts.Close)
		w.shards = append(w.shards, eng)
		addrs = append(addrs, ts.URL)
	}
	planner, err := w.fleetEngine(tr, nil)
	if err != nil {
		return err
	}
	if tr.on.Load() {
		w.reg = minequery.NewMetricsRegistry()
		planner.RegisterMetrics(w.reg)
	}
	m, err := cluster.NewRangeMap("customers", "income", []minequery.Value{minequery.Int(shardBound)}, addrs)
	if err != nil {
		return err
	}
	w.planner = planner
	w.coord = cluster.New(planner, m, cluster.Config{})
	cs := httptest.NewServer(tr.handler(func(*http.Request) string { return "server.coord" },
		server.NewCoord(w.coord, 0).Handler(), &w.respBytes))
	w.closers = append(w.closers, cs.Close)
	w.url = cs.URL
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	w.closers = append(w.closers, w.client.CloseIdleConnections)
	return nil
}

func (w *fleetServe) teardown() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
	w.closers, w.shards, w.planner, w.coord = nil, nil, nil, nil
}

// coordResponse is the part of the coordinator's execute response the
// benchmark reads.
type coordResponse struct {
	StatementID string  `json:"statement_id"`
	Rows        [][]any `json:"rows"`
	AggMerges   int64   `json:"agg_partial_merges"`
}

// post sends one request on the client connection and decodes the
// reply; the round trip up to the last body byte is its own span.
func (w *fleetServe) post(path string, body map[string]any) (*coordResponse, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	var raw []byte
	err = w.tr.timed("client.roundtrip", func() error {
		resp, err := w.client.Post(w.url+path, "application/json", bytes.NewReader(blob))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, err = io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s -> %d: %s", path, resp.StatusCode, raw)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var out coordResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("%s: decoding the response: %w", path, err)
	}
	return &out, nil
}

func fpJSON(rows [][]any) fingerprint {
	var f fingerprint
	for _, r := range rows {
		f.add(toInt(r[0]))
	}
	return f
}

func (w *fleetServe) check(x *runner) error {
	ctx := context.Background()
	w.pointSQL = fmt.Sprintf("SELECT id, age, income FROM customers %s WHERE m.segment = 'vip' AND visits = %d",
		predJoin("customers", "seg_tree", "m"), w.vis[0])
	w.scanSQL = fmt.Sprintf("SELECT id, age, income FROM customers %s WHERE m.segment = 'regular' AND visits = %d",
		predJoin("customers", "seg_tree", "m"), w.vis[1])
	w.filterQ = filterSQL("customers", w.filter)
	w.aggSQL = "SELECT m.segment, count(*), sum(visits) FROM customers " + predJoin("customers", "seg_tree", "m") + " GROUP BY m.segment"
	w.want = map[string]fingerprint{}
	w.baseMismatch = map[string]string{}

	// Each coordinator answer must equal the union of the per-shard
	// single-node answers; the baseline union must agree too.
	for _, q := range []string{w.pointSQL, w.scanSQL, w.filterQ} {
		var union, base fingerprint
		for _, eng := range w.shards {
			res, err := eng.Query(ctx, q)
			if err != nil {
				return err
			}
			bres, err := eng.Query(ctx, q, minequery.WithBaseline())
			if err != nil {
				return err
			}
			for _, t := range res.Rows {
				union.add(t[0].AsInt())
			}
			for _, t := range bres.Rows {
				base.add(t[0].AsInt())
			}
		}
		got, err := w.post("/v1/execute", map[string]any{"sql": q})
		if err != nil {
			return err
		}
		if fp := fpJSON(got.Rows); fp != union {
			x.wrongAnswer(wrongf("coordinator answered %v, the shards' union is %v: %s", fp, union, q))
		}
		w.want[q] = union
		if base != union {
			w.baseMismatch[q] = fmt.Sprintf("envelope answer %v, baseline %v: %s", union, base, q)
		}
	}
	var own fingerprint
	for _, rw := range w.rows {
		if w.filter.match(rw) {
			own.add(rw.id)
		}
	}
	if own != w.want[w.filterQ] {
		x.wrongAnswer(wrongf("%s: the shards' union is %v, the generated rows give %v", w.filterQ, w.want[w.filterQ], own))
	}
	// The GROUP BY must equal a fold over the generated rows, with each
	// row's class from the shards' baseline projections.
	var pred []minequery.Tuple
	for _, eng := range w.shards {
		res, err := eng.Query(ctx, "SELECT id, m.segment FROM customers "+predJoin("customers", "seg_tree", "m"), minequery.WithBaseline())
		if err != nil {
			return err
		}
		pred = append(pred, res.Rows...)
	}
	var err error
	if w.wantAgg, err = foldSegments(pred, w.rows); err != nil {
		return err
	}
	prep, err := w.post("/v1/prepare", map[string]any{"sql": w.pointSQL})
	if err != nil {
		return err
	}
	w.stmtID = prep.StatementID
	return nil
}

// exec times one coordinator request and checks its rows.
func (w *fleetServe) exec(x *runner, kind, want string, body map[string]any) {
	var res *coordResponse
	d, err := x.time(kind, func() (err error) {
		res, err = w.post("/v1/execute", body)
		return err
	})
	if err == nil {
		if kind == "agg" {
			if w.tr.on.Load() {
				w.aggQueries++
				w.aggMerges += res.AggMerges
			}
			rows := make([][3]any, len(res.Rows))
			for i, r := range res.Rows {
				cls, _ := r[0].(string)
				rows[i] = [3]any{cls, r[1], r[2]}
			}
			err = checkAgg(rows, w.wantAgg)
		} else if msg, bad := w.baseMismatch[want]; bad {
			err = &knownFault{msg}
		} else if got := fpJSON(res.Rows); got != w.want[want] {
			err = wrongf("%s returned %v, want %v", want, got, w.want[want])
		}
	}
	x.record(kind, d, err)
}

func (w *fleetServe) round(_ int, x *runner) error {
	for i := 0; i < 4; i++ {
		// A distinct text per request, so each is parsed, rewritten and
		// planned from scratch; the id bound exceeds every id, so the
		// answer is the prepared query's.
		w.adhoc++
		q := fmt.Sprintf("%s AND customers.id < %d", w.pointSQL, 1_000_000_000+w.adhoc)
		w.exec(x, "point", w.pointSQL, map[string]any{"sql": q})
	}
	for i := 0; i < 4; i++ {
		w.exec(x, "prepared", w.pointSQL, map[string]any{"statement_id": w.stmtID})
	}
	w.exec(x, "scan", w.scanSQL, map[string]any{"sql": w.scanSQL})
	w.exec(x, "filter", w.filterQ, map[string]any{"sql": w.filterQ})
	w.exec(x, "agg", w.aggSQL, map[string]any{"sql": w.aggSQL})
	return nil
}

func (w *fleetServe) finish(*runner) error { return nil }

// shardStats is the part of a shard's /v1/stats the benchmark reads.
type shardStats struct {
	Prepared struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"prepared"`
	EnvelopeCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"envelope_cache"`
}

// scrape reads every shard's /v1/stats and the summed query-stage
// histogram of the shards' /metrics and the planner's registry.
func (w *fleetServe) scrape() ([2]shardStats, map[string][2]float64) {
	var st [2]shardStats
	stages := stageSums(w.reg)
	for i, addr := range w.coord.ShardStatuses() {
		if resp, err := http.Get(addr.Addr + "/v1/stats"); err == nil {
			_ = json.NewDecoder(resp.Body).Decode(&st[i])
			resp.Body.Close()
		}
		if resp, err := http.Get(addr.Addr + "/metrics"); err == nil {
			text, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			addStageSums(stages, text)
		}
	}
	return st, stages
}

func (w *fleetServe) startPhase() {
	w.layer.startPhase(nil)
	w.countersBefore = w.coord.Counters()
	w.shardStatsBefore, w.stageBefore = w.scrape()
}

func (w *fleetServe) endPhase(ops int) {
	w.layer.endPhase(nil, ops)
	c := w.coord.Counters()
	w.queries += c.Queries - w.countersBefore.Queries
	w.queried += c.Queried - w.countersBefore.Queried
	w.pruned += c.Pruned - w.countersBefore.Pruned
	st, stages := w.scrape()
	for i := range st {
		b := w.shardStatsBefore[i]
		w.prepHits += st[i].Prepared.Hits - b.Prepared.Hits
		w.prepLookup += st[i].Prepared.Hits + st[i].Prepared.Misses - b.Prepared.Hits - b.Prepared.Misses
		w.envHits += st[i].EnvelopeCache.Hits - b.EnvelopeCache.Hits
		w.envLookup += st[i].EnvelopeCache.Hits + st[i].EnvelopeCache.Misses - b.EnvelopeCache.Hits - b.EnvelopeCache.Misses
	}
	if w.stages == nil {
		w.stages = map[string][2]float64{}
	}
	for k, v := range stages {
		b, acc := w.stageBefore[k], w.stages[k]
		w.stages[k] = [2]float64{acc[0] + v[0] - b[0], acc[1] + v[1] - b[1]}
	}
}

func (w *fleetServe) layers(m layerMetrics) {
	// The runtime's allocation and GC counts cover the whole process:
	// client, coordinator and both shards.
	w.layer.metrics(m)
	setupLayers(w.tr, m)
	// Per request: the coordinator handler's time, the client's round
	// trip around it, and the slowest shard-exec call inside it.
	type req struct {
		coord, trip, slowest, shardSum float64
		shardCalls                     int
	}
	reqs := map[int64]*req{}
	for _, s := range w.tr.snapshot() {
		if s.Req == 0 || s.End == 0 {
			continue
		}
		r := reqs[s.Req]
		if r == nil {
			r = &req{}
			reqs[s.Req] = r
		}
		d := float64(s.End - s.Start)
		switch s.Name {
		case "server.coord":
			r.coord += d
		case "client.roundtrip":
			r.trip += d
		case "cluster.shard0", "cluster.shard1":
			r.shardSum += d
			r.shardCalls++
			if d > r.slowest {
				r.slowest = d
			}
		}
	}
	var n, coord, transport, merge, shardSum, shardCalls float64
	for _, r := range reqs {
		if r.coord == 0 {
			continue
		}
		n++
		coord += r.coord
		transport += r.trip - r.coord
		merge += r.coord - r.slowest
		shardSum += r.shardSum
		shardCalls += float64(r.shardCalls)
	}
	m["server.handler_us"] = ratio(coord, n) / 1e3
	m["server.transport_us"] = ratio(transport, n) / 1e3
	m["cluster.merge_us"] = ratio(merge, n) / 1e3
	m["cluster.shard_rpc_us"] = ratio(shardSum, shardCalls) / 1e3
	m["server.response_bytes"] = ratio(float64(w.respBytes.Load()), n)
	m["server.prepared_hit_ratio"] = ratio(float64(w.prepHits), float64(w.prepLookup))
	m["core.envelope_cache_hit_ratio"] = ratio(float64(w.envHits), float64(w.envLookup))
	m["cluster.shards_queried_per_query"] = ratio(float64(w.queried), float64(w.queries))
	m["cluster.shards_pruned_per_query"] = ratio(float64(w.pruned), float64(w.queries))
	m["agg.merges_per_query"] = ratio(float64(w.aggMerges), float64(w.aggQueries))
	for stage, name := range map[string]string{"parse": "sqlparse.parse_us", "rewrite": "core.rewrite_us", "optimize": "opt.optimize_us"} {
		v := w.stages[stage]
		m[name] = ratio(v[0], v[1]) * 1e6
	}
}

func (w *fleetServe) extra(*runner) []figure { return nil }
