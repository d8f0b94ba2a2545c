package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"minequery"
)

// mine-read: embedded Engine.Query over a bulk-loaded table, one
// client in a closed loop. The mix is the paper's mining-predicate
// selections for a decision tree, naive Bayes and k-means model — rare
// classes (index path) and common classes (envelope-filtered scan) —
// a prepared point query, a GROUP BY on a predicted column, and
// multi-disjunct data filters on a columnar copy of the table.
const mineRows = 80_000

type mineRead struct {
	rows    []row
	filters []disjunctFilter
	rng     *rand.Rand

	eng *minequery.Engine
	reg *minequery.MetricsRegistry
	tr  *tracer

	// Filled by check: the mix and what each query must return.
	point, scan []string
	prepSQL     string
	prep        *minequery.Prepared
	aggSQL      string
	want        map[string]fingerprint
	// wantAgg is the GROUP BY answer folded from the generated rows.
	wantAgg map[string][2]int64
	// baseMismatch lists queries whose envelope answer differs from the
	// baseline answer: each execution is a failed operation.
	baseMismatch map[string]string

	layer readLayers
}

func newMineRead(seed int64) *mineRead {
	r := rand.New(rand.NewSource(seed))
	w := &mineRead{rng: r, rows: genRows(r, mineRows, 0)}
	for i := 0; i < 3; i++ {
		w.filters = append(w.filters, genFilter(r))
	}
	return w
}

func (w *mineRead) setup(tr *tracer) error {
	w.tr = tr
	eng := minequery.New()
	eng.SetDOP(scanDOP(1))
	if tr.on.Load() {
		w.reg = minequery.NewMetricsRegistry()
		eng.RegisterMetrics(w.reg)
	}
	data := tuples(w.rows)
	for _, t := range []string{"customers", "customers_col"} {
		if err := eng.CreateTable(t, customerSchema()); err != nil {
			return err
		}
		if err := tr.timed("storage.load", func() error { return eng.InsertBatch(t, data) }); err != nil {
			return err
		}
	}
	if err := loadSample(eng, tr, w.rows); err != nil {
		return err
	}
	if err := trainModels(eng, tr, "training", "customers", "seg"); err != nil {
		return err
	}
	if err := tr.timed("btree.index_build", func() error {
		return eng.CreateIndex("ix_age_income", "customers", "age", "income")
	}); err != nil {
		return err
	}
	if err := tr.timed("vec.columnar_build", func() error { return eng.EnableColumnar("customers_col") }); err != nil {
		return err
	}
	for _, t := range []string{"customers", "customers_col"} {
		if err := tr.timed("stats.analyze", func() error { return eng.Analyze(t) }); err != nil {
			return err
		}
	}
	w.eng = eng
	return nil
}

// trainModels trains three mining models through the Go training API:
// <prefix>_tree (on treeTable, a sample) and <prefix>_bayes predict
// segment, and <prefix>_km is a 4-means clustering of (age, income).
func trainModels(eng *minequery.Engine, tr *tracer, treeTable, table, prefix string) error {
	if err := trainTree(eng, tr, prefix+"_tree", treeTable); err != nil {
		return err
	}
	mi, err := eng.TrainNaiveBayes(prefix+"_bayes", "segment", table, features, "segment", minequery.BayesOptions{})
	if err != nil {
		return err
	}
	noteModel(tr, mi)
	mi, err = eng.TrainKMeans(prefix+"_km", "cluster", table, features, minequery.ClusterOptions{K: 4, Seed: 7})
	if err != nil {
		return err
	}
	noteModel(tr, mi)
	return nil
}

var features = []string{"age", "income"}

// trainTree trains a decision tree predicting segment over table.
func trainTree(eng *minequery.Engine, tr *tracer, name, table string) error {
	mi, err := eng.TrainDecisionTree(name, "segment", table, features, "segment", treeOpts)
	if err != nil {
		return err
	}
	noteModel(tr, mi)
	return nil
}

// noteModel records a model's training and envelope-derivation times.
func noteModel(tr *tracer, mi *minequery.ModelInfo) {
	tr.add("mining.train_ms", float64(mi.TrainTime)/1e6)
	tr.add("core.envelope_derive_ms", float64(mi.EnvelopeTime)/1e6)
}

// loadSample creates the training-sample table.
func loadSample(eng *minequery.Engine, tr *tracer, rows []row) error {
	if err := eng.CreateTable("training", customerSchema()); err != nil {
		return err
	}
	return tr.timed("storage.load", func() error { return eng.InsertBatch("training", tuples(rows[:trainRows])) })
}

func (w *mineRead) teardown() { w.eng, w.prep = nil, nil }

func mineSelect(t, model, alias, class string, extra string) string {
	return fmt.Sprintf("SELECT id, age, income FROM %s %s WHERE %s.%s = %s%s",
		t, predJoin(t, model, alias), alias, predColumn(model), class, extra)
}

func predColumn(model string) string {
	if strings.HasSuffix(model, "_km") {
		return "cluster"
	}
	return "segment"
}

func (w *mineRead) check(x *runner) error {
	ctx := context.Background()
	r := w.rng
	w.point = nil
	for i := 0; i < 3; i++ {
		w.point = append(w.point, mineSelect("customers", "seg_tree", "m", "'vip'", fmt.Sprintf(" AND visits >= %d", r.Intn(5))))
	}
	w.prepSQL = mineSelect("customers", "seg_tree", "m", "'vip'", "")
	// Cluster numbers differ from seed to seed; the scanned cluster is
	// the one holding the youngest, lowest-income customers.
	corner, err := w.cornerCluster(ctx)
	if err != nil {
		return err
	}
	w.scan = []string{
		mineSelect("customers", "seg_tree", "m", "'regular'", ""),
		mineSelect("customers", "seg_bayes", "m", "'budget'", ""),
		mineSelect("customers", "seg_km", "k", corner, ""),
	}
	w.aggSQL = "SELECT m.segment, count(*), sum(visits) FROM customers " +
		predJoin("customers", "seg_tree", "m") + " GROUP BY m.segment"
	w.want = map[string]fingerprint{}
	w.baseMismatch = map[string]string{}

	for _, q := range append(append([]string{w.prepSQL}, w.point...), w.scan...) {
		env, err := w.eng.Query(ctx, q)
		if err != nil {
			return err
		}
		base, err := w.eng.Query(ctx, q, minequery.WithBaseline())
		if err != nil {
			return err
		}
		w.want[q] = fpTuples(base.Rows)
		if got := fpTuples(env.Rows); got != w.want[q] {
			w.baseMismatch[q] = fmt.Sprintf("envelope answer %v, baseline %v: %s", got, w.want[q], q)
		}
	}
	for _, f := range w.filters {
		var want fingerprint
		for _, rw := range w.rows {
			if f.match(rw) {
				want.add(rw.id)
			}
		}
		w.want[filterSQL("customers_col", f)] = want
	}
	// The GROUP BY answer is folded from the generated rows, with each
	// row's class taken from a baseline (model-per-row) projection.
	pred, err := w.eng.Query(ctx, "SELECT id, m.segment FROM customers "+predJoin("customers", "seg_tree", "m"), minequery.WithBaseline())
	if err != nil {
		return err
	}
	w.wantAgg, err = foldSegments(pred.Rows, w.rows)
	if err != nil {
		return err
	}
	prep, err := w.eng.Prepare(w.prepSQL)
	if err != nil {
		return err
	}
	w.prep = prep
	return nil
}

func (w *mineRead) cornerCluster(ctx context.Context) (string, error) {
	id := w.rows[0].id
	best := int64(1 << 62)
	for _, rw := range w.rows {
		if d := (*rw.age - ageMin) + *rw.income; d < best {
			best, id = d, rw.id
		}
	}
	res, err := w.eng.Query(ctx, fmt.Sprintf("SELECT id, k.cluster FROM customers %s WHERE id = %d",
		predJoin("customers", "seg_km", "k"), id), minequery.WithBaseline())
	if err != nil {
		return "", err
	}
	if len(res.Rows) != 1 {
		return "", fmt.Errorf("cluster of row %d: %d rows", id, len(res.Rows))
	}
	return res.Rows[0][1].String(), nil
}

func filterSQL(t string, f disjunctFilter) string {
	return fmt.Sprintf("SELECT id FROM %s WHERE %s", t, f.where())
}

// foldSegments computes count(*) and sum(visits) per predicted class
// from (id, class) pairs and the benchmark's own rows.
func foldSegments(pred []minequery.Tuple, rows []row) (map[string][2]int64, error) {
	byID := make(map[int64]row, len(rows))
	for _, rw := range rows {
		byID[rw.id] = rw
	}
	out := map[string][2]int64{}
	for _, t := range pred {
		rw, ok := byID[t[0].AsInt()]
		if !ok {
			return nil, fmt.Errorf("prediction for unknown id %d", t[0].AsInt())
		}
		g := out[t[1].AsString()]
		g[0]++
		g[1] += rw.visits
		out[t[1].AsString()] = g
	}
	return out, nil
}

// checkAgg compares GROUP BY rows (class, count, sum) with a fold.
func checkAgg(rows [][3]any, want map[string][2]int64) error {
	if len(rows) != len(want) {
		return wrongf("GROUP BY returned %d groups, the fold has %d", len(rows), len(want))
	}
	for _, r := range rows {
		cls, _ := r[0].(string)
		g, ok := want[cls]
		if !ok || toInt(r[1]) != g[0] || toInt(r[2]) != g[1] {
			return wrongf("GROUP BY group %v disagrees with the fold %v", r, g)
		}
	}
	return nil
}

func toInt(v any) int64 {
	switch n := v.(type) {
	case int64:
		return n
	case float64:
		return int64(n)
	case minequery.Value:
		return n.AsInt()
	}
	return -1 << 62
}

func resultAggRows(res *minequery.Result) [][3]any {
	out := make([][3]any, len(res.Rows))
	for i, t := range res.Rows {
		out[i] = [3]any{t[0].AsString(), t[1].AsInt(), t[2].AsInt()}
	}
	return out
}

// query runs one timed embedded query and checks its answer against
// the expected fingerprint.
func (w *mineRead) query(x *runner, kind, q string, run func() (*minequery.Result, error)) {
	var res *minequery.Result
	d, err := x.time(kind, func() (err error) {
		res, err = run()
		return err
	})
	if err == nil {
		if w.tr.on.Load() {
			w.layer.observe(kind, res)
		}
		if msg, bad := w.baseMismatch[q]; bad {
			err = &knownFault{msg}
		} else if got := fpTuples(res.Rows); got != w.want[q] {
			err = wrongf("%s returned %v, want %v", q, got, w.want[q])
		}
	}
	x.record(kind, d, err)
}

func (w *mineRead) round(_ int, x *runner) error {
	ctx := context.Background()
	plain := func(q string) func() (*minequery.Result, error) {
		return func() (*minequery.Result, error) { return w.eng.Query(ctx, q) }
	}
	for _, q := range w.point {
		w.query(x, "point", q, plain(q))
	}
	for i := 0; i < 3; i++ {
		w.query(x, "prepared", w.prepSQL, func() (*minequery.Result, error) { return w.prep.Execute(ctx) })
	}
	for _, q := range w.scan {
		w.query(x, "scan", q, plain(q))
	}
	for _, f := range w.filters {
		q := filterSQL("customers_col", f)
		w.query(x, "filter", q, plain(q))
	}
	var res *minequery.Result
	d, err := x.time("agg", func() (err error) {
		res, err = w.eng.Query(ctx, w.aggSQL)
		return err
	})
	if err == nil {
		if w.tr.on.Load() {
			w.layer.observe("agg", res)
		}
		err = checkAgg(resultAggRows(res), w.wantAgg)
	}
	x.record("agg", d, err)
	return nil
}

func (w *mineRead) finish(*runner) error { return nil }

func (w *mineRead) startPhase()      { w.layer.startPhase(w.reg) }
func (w *mineRead) endPhase(ops int) { w.layer.endPhase(w.reg, ops) }

func (w *mineRead) layers(m layerMetrics) {
	w.layer.metrics(m)
	setupLayers(w.tr, m)
}

// setupLayers reports the set-up spans and counters of the traced
// (last) set-up.
func setupLayers(tr *tracer, m layerMetrics) {
	m["mining.train_ms"] = tr.counter("mining.train_ms")
	m["core.envelope_derive_ms"] = tr.counter("core.envelope_derive_ms")
	for name, span := range map[string]string{
		"storage.load_s": "storage.load", "stats.analyze_s": "stats.analyze", "btree.index_build_s": "btree.index_build",
	} {
		total, _ := tr.stat(span)
		m[name] = total / 1e9
	}
}

func (w *mineRead) extra(*runner) []figure { return nil }
