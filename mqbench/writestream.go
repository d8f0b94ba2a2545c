package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"

	"minequery"
)

// write-stream: one writer issuing Exec statements against a WAL whose
// flush policy is fixed for the whole benchmark — every statement is
// appended and synced before it is applied (the engine's protocol), on
// an in-memory device. A CREATE MODEL naive Bayes model sits on the
// written table with a write-volume retrain threshold, standing
// subscriptions are registered, and mining reads, a prepared read, a
// GROUP BY and the disjunctive filter run between the writes.
//
// The NULL-feature inserts go to a second table, probe, whose rows,
// NULL rows and models are the same for every seed. A known fault
// (envelope rewrites drop rows whose features are NULL) makes some of
// the probe's mining reads differ from their baseline answers; those
// reads fail identically in every round.
const (
	accountRows = 20_000
	probeRows   = 2_000
	// probeSeed fixes the probe table whatever the workload seed.
	probeSeed = 20021
	// insertsPerRound single-row INSERTs per round; the next round
	// deletes them again, so the table keeps its size.
	insertsPerRound = 8
	updateRows      = 4
	// retrainEvery is the write-volume retrain threshold in rows: a
	// round writes 8 inserted + 4 updated + 8 deleted rows, so the
	// model retrains every fifth round.
	retrainEvery = 100
	dataSubs     = 900
	miningSubs   = 100
	firstInsert  = 1_000_000
	probeNullID  = 5_000_000
)

type writeStream struct {
	seed     int64
	rows     []row
	probe    []row
	subBoxes []box
	subVis   []int64
	filter   disjunctFilter
	visits   []int64 // point-read visits bounds

	eng  *minequery.Engine
	dev  *timedDevice
	reg  *minequery.MetricsRegistry
	tr   *tracer
	prep *minequery.Prepared

	// record is the benchmark's own copy of accounts, by id.
	record map[int64]row
	// subIDs maps a data-only subscription id to its box.
	subIDs  map[int64]box
	matches int64
	// The mining reads, and each model's baseline (model-per-row)
	// classes, refreshed every round after the writes the reads follow.
	point, probes []miningRead
	prepared      miningRead
	scan          miningRead
	aggSQL        string
	base          map[string]map[int64]baseRow
	// rowsOut counts rows written by the rounds, and walStart is the WAL
	// volume before the first round.
	rowsOut  int64
	walStart int64

	layer readLayers
	// standing counters at the start of the traced phase, and the rows
	// evaluated against the subscription set during traced phases.
	standBefore minequery.StandingStats
	standEvals  int64
	standCalls  int64
	standRecomp int64
	standRows   int64
	stmts       int64
	// WAL bytes and rows written during traced phases.
	phaseBytes, phaseRows int64
	walBytes, walRows     int64
}

// miningRead is one mining read: the rows of table that model predicts
// class for, with visits at least minVisits.
type miningRead struct {
	sql, table, model, class string
	minVisits                int64
}

func newMiningRead(table, model, class string, minVisits int64) miningRead {
	lit := class
	if predColumn(model) == "segment" {
		lit = "'" + class + "'"
	}
	extra := ""
	if minVisits > 0 {
		extra = fmt.Sprintf(" AND visits >= %d", minVisits)
	}
	return miningRead{sql: mineSelect(table, model, "m", lit, extra), table: table, model: model, class: class, minVisits: minVisits}
}

// baseRow is one row's visits and baseline class under a model.
type baseRow struct {
	visits int64
	class  string
}

// box is a data-only standing subscription: age in [ageLo, ageHi) and
// income in [incLo, incHi).
type box struct{ ageLo, ageHi, incLo, incHi int64 }

func (b box) match(w row) bool {
	return w.age != nil && w.income != nil && *w.age >= b.ageLo && *w.age < b.ageHi &&
		*w.income >= b.incLo && *w.income < b.incHi
}

func newWriteStream(seed int64) *writeStream {
	r := rand.New(rand.NewSource(seed))
	w := &writeStream{seed: seed, rows: genRows(r, accountRows, 0), filter: genFilter(r)}
	for i := 0; i < dataSubs; i++ {
		a := int64(ageMin + r.Intn(ageMax-ageMin-8))
		in := int64(r.Intn(incomeMax - 8))
		w.subBoxes = append(w.subBoxes, box{a, a + 4 + int64(r.Intn(6)), in, in + 4 + int64(r.Intn(6))})
	}
	for i := 0; i < miningSubs; i++ {
		w.subVis = append(w.subVis, int64(r.Intn(visitsMax)))
	}
	w.visits = []int64{int64(r.Intn(5)), int64(r.Intn(5))}
	w.probe = genRows(rand.New(rand.NewSource(probeSeed)), probeRows, 0)
	return w
}

// probeNulls are the NULL-feature rows every round inserts into probe
// and deletes again: NULL age, NULL income, or both.
func probeNulls() []row {
	return []row{
		{id: probeNullID, age: nil, income: ip(60), visits: 3, segment: "regular"},
		{id: probeNullID + 1, age: ip(40), income: nil, visits: 5, segment: "regular"},
		{id: probeNullID + 2, age: nil, income: ip(95), visits: 7, segment: "vip"},
		{id: probeNullID + 3, age: nil, income: nil, visits: 9, segment: "budget"},
	}
}

// timedDevice wraps the WAL device in spans and counts bytes and syncs.
type timedDevice struct {
	dev          *minequery.MemWALDevice
	tr           *tracer
	bytes, syncs atomic.Int64
}

func (d *timedDevice) Contents() ([]byte, error) { return d.dev.Contents() }
func (d *timedDevice) Truncate(n int) error      { return d.dev.Truncate(n) }

func (d *timedDevice) Write(p []byte) error {
	d.bytes.Add(int64(len(p)))
	return d.tr.timed("wal.write", func() error { return d.dev.Write(p) })
}

func (d *timedDevice) Sync() error {
	d.syncs.Add(1)
	return d.tr.timed("wal.sync", func() error { return d.dev.Sync() })
}

// baseEngine builds what a restarted process rebuilds before attaching
// its WAL: both tables with their bulk rows and the retrain policy.
func (w *writeStream) baseEngine(tr *tracer) (*minequery.Engine, error) {
	eng := minequery.New()
	eng.SetDOP(scanDOP(1))
	for _, t := range []struct {
		name string
		rows []row
	}{{"accounts", w.rows}, {"probe", w.probe}} {
		if err := eng.CreateTable(t.name, customerSchema()); err != nil {
			return nil, err
		}
		if err := tr.timed("storage.load", func() error { return eng.InsertBatch(t.name, tuples(t.rows)) }); err != nil {
			return nil, err
		}
	}
	eng.SetRetrainPolicy(minequery.RetrainPolicy{WriteThreshold: retrainEvery})
	return eng, nil
}

func (w *writeStream) setup(tr *tracer) error {
	w.tr = tr
	eng, err := w.baseEngine(tr)
	if err != nil {
		return err
	}
	if tr.on.Load() {
		w.reg = minequery.NewMetricsRegistry()
		eng.RegisterMetrics(w.reg)
	}
	if err := tr.timed("btree.index_build", func() error {
		return eng.CreateIndex("ix_age_income", "accounts", "age", "income")
	}); err != nil {
		return err
	}
	if err := tr.timed("vec.columnar_build", func() error { return eng.EnableColumnar("accounts") }); err != nil {
		return err
	}
	for _, t := range []string{"accounts", "probe"} {
		if err := tr.timed("stats.analyze", func() error { return eng.Analyze(t) }); err != nil {
			return err
		}
	}
	// The probe's models come from the Go training API, so writes never
	// retrain them and its answers stay the same in every round.
	if err := trainModels(eng, tr, "probe", "probe", "probe"); err != nil {
		return err
	}
	// The point reads use a decision tree trained on a sample of the
	// bulk rows through the Go API; the retrained model is the CREATE
	// MODEL one below.
	if err := loadSample(eng, tr, w.rows); err != nil {
		return err
	}
	if err := trainTree(eng, tr, "acct_tree", "training"); err != nil {
		return err
	}
	w.dev = &timedDevice{dev: minequery.NewMemWALDevice(), tr: tr}
	if _, err := eng.EnableWAL(w.dev); err != nil {
		return err
	}
	res, err := eng.Exec(context.Background(),
		"CREATE MODEL acct_bayes ON accounts PREDICT segment USING nbayes AS SELECT age, income, segment FROM accounts")
	if err != nil {
		return err
	}
	noteModel(tr, res.Model)
	w.subIDs = map[int64]box{}
	for _, b := range w.subBoxes {
		id, err := eng.Subscribe(fmt.Sprintf("SELECT id, age, income FROM accounts WHERE age >= %d AND age < %d AND income >= %d AND income < %d",
			b.ageLo, b.ageHi, b.incLo, b.incHi))
		if err != nil {
			return err
		}
		w.subIDs[id] = b
	}
	for _, v := range w.subVis {
		if _, err := eng.Subscribe(fmt.Sprintf("SELECT id, m.segment FROM accounts %s WHERE m.segment = 'vip' AND visits >= %d",
			predJoin("accounts", "acct_bayes", "m"), v)); err != nil {
			return err
		}
	}
	w.eng = eng
	return nil
}

func (w *writeStream) teardown() { w.eng, w.prep = nil, nil }

func (w *writeStream) check(x *runner) error {
	w.record = make(map[int64]row, len(w.rows))
	for _, rw := range w.rows {
		w.record[rw.id] = rw
	}
	w.point = []miningRead{
		newMiningRead("accounts", "acct_tree", "vip", w.visits[0]),
		newMiningRead("accounts", "acct_tree", "vip", w.visits[1]),
	}
	w.prepared = newMiningRead("accounts", "acct_tree", "vip", 0)
	w.scan = newMiningRead("accounts", "acct_bayes", "budget", 0)
	w.aggSQL = "SELECT m.segment, count(*), sum(visits) FROM accounts " + predJoin("accounts", "acct_bayes", "m") + " GROUP BY m.segment"
	w.probes = nil
	for _, m := range w.eng.ModelSummaries() {
		if !strings.HasPrefix(m.Name, "probe_") {
			continue
		}
		for _, c := range m.Classes {
			if u, err := strconv.Unquote(c); err == nil {
				c = u
			}
			w.probes = append(w.probes, newMiningRead("probe", m.Name, c, 0))
		}
	}
	prep, err := w.eng.Prepare(w.prepared.sql)
	if err != nil {
		return err
	}
	w.prep = prep
	w.base = map[string]map[int64]baseRow{}
	w.rowsOut, w.walStart = 0, w.dev.bytes.Load()
	return nil
}

// mining runs one timed mining read and compares its answer with the
// baseline answer, outside the timed part.
func (w *writeStream) mining(x *runner, kind string, rd miningRead, run func() (*minequery.Result, error)) {
	var res *minequery.Result
	d, err := x.time(kind, func() (err error) {
		res, err = run()
		return err
	})
	if err == nil {
		w.observe(kind, res)
		var want fingerprint
		for id, b := range w.base[rd.model] {
			if b.class == rd.class && b.visits >= rd.minVisits {
				want.add(id)
			}
		}
		if got := fpTuples(res.Rows); got != want {
			err = &knownFault{fmt.Sprintf("envelope answer %v, baseline %v: %s", got, want, rd.sql)}
		}
	}
	x.record(kind, d, err)
}

// refreshBaseline evaluates each model row by row over table
// (WithBaseline) once, after the writes the next reads follow; every
// read's baseline answer is a selection from it.
func (w *writeStream) refreshBaseline(table string, models ...string) error {
	for _, model := range models {
		res, err := w.eng.Query(context.Background(), fmt.Sprintf("SELECT id, visits, m.%s FROM %s %s",
			predColumn(model), table, predJoin(table, model, "m")), minequery.WithBaseline())
		if err != nil {
			return err
		}
		rows := make(map[int64]baseRow, len(res.Rows))
		for _, t := range res.Rows {
			rows[t[0].AsInt()] = baseRow{visits: t[1].AsInt(), class: classString(t[2])}
		}
		w.base[model] = rows
	}
	return nil
}

func classString(v minequery.Value) string {
	if v.Kind() == minequery.KindString {
		return v.AsString()
	}
	return v.String()
}

func (w *writeStream) observe(kind string, res *minequery.Result) {
	if w.tr.on.Load() {
		w.layer.observe(kind, res)
	}
}

// exec runs one timed write statement. A statement that retrained a
// model is filed as "retrain" instead of its own kind.
func (w *writeStream) exec(x *runner, kind, sql string) (*minequery.ExecResult, error) {
	var res *minequery.ExecResult
	d, err := x.time(kind, func() (err error) {
		res, err = w.eng.Exec(context.Background(), sql)
		return err
	})
	if err == nil && len(res.Retrained) > 0 {
		kind = "retrain"
	}
	if err == nil {
		w.rowsOut += res.RowsAffected
	}
	if w.tr.on.Load() {
		w.stmts++
	}
	x.record(kind, d, err)
	return res, err
}

// drain collects the standing matches the last statement produced and
// checks the data-only ones against the benchmark's own evaluation of
// the written row images.
func (w *writeStream) drain(written []row) error {
	st := w.eng.StandingStats()
	n := st.Matches - w.matches
	w.matches = st.Matches
	if st.Dropped > 0 {
		return wrongf("standing queue dropped %d matches", st.Dropped)
	}
	got := map[[2]int64]int{}
	for n > 0 {
		ns, err := w.eng.Notifications(context.Background(), int(n))
		if err != nil {
			return err
		}
		n -= int64(len(ns))
		for _, nt := range ns {
			if _, ok := w.subIDs[nt.SubID]; ok {
				got[[2]int64{nt.SubID, nt.Row[0].AsInt()}]++
			}
		}
	}
	want := 0
	for _, rw := range written {
		for id, b := range w.subIDs {
			if b.match(rw) {
				want++
				if got[[2]int64{id, rw.id}] != 1 {
					return wrongf("standing subscription %d: row %d matched %d times, want once", id, rw.id, got[[2]int64{id, rw.id}])
				}
			}
		}
	}
	if len(got) != want {
		return wrongf("standing: %d data-only matches, the benchmark's evaluation has %d", len(got), want)
	}
	return nil
}

func (w *writeStream) round(r int, x *runner) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(r)))
	if w.tr.on.Load() {
		w.standRows += insertsPerRound + updateRows
	}
	// Writes to accounts, each followed by the standing check.
	for i := 0; i < insertsPerRound; i++ {
		rw := genRow(rng, firstInsert+int64(r*insertsPerRound+i))
		if _, err := w.exec(x, "insert", rw.insertSQL("accounts")); err != nil {
			continue
		}
		w.record[rw.id] = rw
		if err := w.drain([]row{rw}); err != nil {
			x.wrongAnswer(err)
		}
	}
	lo := int64(r%(accountRows/updateRows)) * updateRows
	vis := int64(rng.Intn(visitsMax + 1))
	upd := fmt.Sprintf("UPDATE accounts SET visits = %d WHERE id >= %d AND id < %d", vis, lo, lo+updateRows)
	if _, err := w.exec(x, "update", upd); err == nil {
		var written []row
		for id := lo; id < lo+updateRows; id++ {
			rw := w.record[id]
			rw.visits = vis
			w.record[id] = rw
			written = append(written, rw)
		}
		if err := w.drain(written); err != nil {
			x.wrongAnswer(err)
		}
	}
	if r > 0 {
		prevLo := int64(firstInsert + (r-1)*insertsPerRound)
		del := fmt.Sprintf("DELETE FROM accounts WHERE id >= %d AND id < %d", prevLo, prevLo+insertsPerRound)
		if _, err := w.exec(x, "delete", del); err == nil {
			for id := prevLo; id < prevLo+insertsPerRound; id++ {
				delete(w.record, id)
			}
		}
	}

	// Reads between the writes.
	if err := w.refreshBaseline("accounts", "acct_tree", "acct_bayes"); err != nil {
		return err
	}
	for _, rd := range w.point {
		w.mining(x, "point", rd, func() (*minequery.Result, error) { return w.eng.Query(ctx, rd.sql) })
	}
	w.mining(x, "prepared", w.prepared, func() (*minequery.Result, error) {
		res, err := w.prep.Execute(ctx)
		if errors.Is(err, minequery.ErrStalePlan) {
			// A retrain invalidated the plan: re-prepare, as a client must.
			if w.prep, err = w.eng.Prepare(w.prepared.sql); err != nil {
				return nil, err
			}
			res, err = w.prep.Execute(ctx)
		}
		return res, err
	})
	w.mining(x, "scan", w.scan, func() (*minequery.Result, error) { return w.eng.Query(ctx, w.scan.sql) })
	w.filterRead(x)
	w.aggRead(x)

	// The probe: NULL-feature inserts, its mining reads, and the delete
	// that restores it.
	for _, rw := range probeNulls() {
		w.exec(x, "insert", rw.insertSQL("probe"))
	}
	if err := w.refreshBaseline("probe", "probe_tree", "probe_bayes", "probe_km"); err != nil {
		return err
	}
	for _, rd := range w.probes {
		w.mining(x, "probe", rd, func() (*minequery.Result, error) { return w.eng.Query(ctx, rd.sql) })
	}
	w.exec(x, "delete", fmt.Sprintf("DELETE FROM probe WHERE id >= %d", probeNullID))
	return nil
}

func (w *writeStream) filterRead(x *runner) {
	q := filterSQL("accounts", w.filter)
	var res *minequery.Result
	d, err := x.time("filter", func() (err error) {
		res, err = w.eng.Query(context.Background(), q)
		return err
	})
	if err == nil {
		w.observe("filter", res)
		var want fingerprint
		for _, rw := range w.record {
			if w.filter.match(rw) {
				want.add(rw.id)
			}
		}
		if got := fpTuples(res.Rows); got != want {
			err = wrongf("%s returned %v, the benchmark's record has %v", q, got, want)
		}
	}
	x.record("filter", d, err)
}

// aggRead times the GROUP BY and checks it against a fold over the
// benchmark's record, with each row's class from the baseline classes.
func (w *writeStream) aggRead(x *runner) {
	var res *minequery.Result
	d, err := x.time("agg", func() (err error) {
		res, err = w.eng.Query(context.Background(), w.aggSQL)
		return err
	})
	if err == nil {
		w.observe("agg", res)
		want := map[string][2]int64{}
		for id, rw := range w.record {
			b, ok := w.base["acct_bayes"][id]
			if !ok {
				err = wrongf("row %d of the record has no baseline class", id)
				break
			}
			g := want[b.class]
			g[0]++
			g[1] += rw.visits
			want[b.class] = g
		}
		if err == nil {
			err = checkAgg(resultAggRows(res), want)
		}
	}
	x.record("agg", d, err)
}

// finish checks the table against the benchmark's record of every
// statement it applied, then replays the synced WAL bytes into a fresh
// engine, which must show the same rows: every acknowledged write
// survives a restart.
func (w *writeStream) finish(x *runner) error {
	if err := w.compareTables(w.eng, "live engine"); err != nil {
		x.wrongAnswer(err)
		return nil
	}
	image := w.dev.dev.CrashImage(0)
	fresh, err := w.baseEngine(newTracer())
	if err != nil {
		return err
	}
	if _, err := fresh.EnableWAL(minequery.NewMemWALDeviceFrom(image)); err != nil {
		return fmt.Errorf("replaying the WAL: %w", err)
	}
	if err := w.compareTables(fresh, "engine replayed from the synced WAL"); err != nil {
		x.wrongAnswer(err)
	}
	return nil
}

func (w *writeStream) compareTables(eng *minequery.Engine, what string) error {
	ctx := context.Background()
	res, err := eng.Query(ctx, "SELECT id, age, income, visits, segment FROM accounts")
	if err != nil {
		return err
	}
	if len(res.Rows) != len(w.record) {
		return wrongf("%s holds %d accounts rows, the benchmark's record %d", what, len(res.Rows), len(w.record))
	}
	for _, t := range res.Rows {
		want, ok := w.record[t[0].AsInt()]
		if !ok || !tupleEqual(t, want.tuple()) {
			return wrongf("%s: accounts row %v differs from the record", what, t)
		}
	}
	res, err = eng.Query(ctx, "SELECT id, age, income, visits, segment FROM probe")
	if err != nil {
		return err
	}
	var want fingerprint
	for _, rw := range w.probe {
		want.add(rw.id)
	}
	if got := fpTuples(res.Rows); got != want {
		return wrongf("%s: probe holds %v, want %v", what, got, want)
	}
	return nil
}

func tupleEqual(a, b minequery.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNull() != b[i].IsNull() || a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

func (w *writeStream) startPhase() {
	w.layer.startPhase(w.reg)
	w.standBefore = w.eng.StandingStats()
	w.phaseBytes, w.phaseRows = w.dev.bytes.Load(), w.rowsOut
}

func (w *writeStream) endPhase(ops int) {
	w.layer.endPhase(w.reg, ops)
	st := w.eng.StandingStats()
	w.standEvals += st.Evals - w.standBefore.Evals
	w.standCalls += st.ModelCalls - w.standBefore.ModelCalls
	w.standRecomp += st.Recompiles - w.standBefore.Recompiles
	w.walBytes += w.dev.bytes.Load() - w.phaseBytes
	w.walRows += w.rowsOut - w.phaseRows
}

func (w *writeStream) layers(m layerMetrics) {
	w.layer.metrics(m)
	setupLayers(w.tr, m)
	stmts := float64(w.stmts)
	wt, _ := w.tr.stat("wal.write")
	st, syncs := w.tr.stat("wal.sync")
	m["wal.write_us_per_stmt"] = ratio(wt/1e3, stmts)
	m["wal.sync_us_per_stmt"] = ratio(st/1e3, stmts)
	m["wal.syncs_per_stmt"] = ratio(float64(syncs), stmts)
	m["wal.bytes_per_row"] = ratio(float64(w.walBytes), float64(w.walRows))
	m["standing.evals_per_row"] = ratio(float64(w.standEvals), float64(w.standRows))
	m["standing.model_calls_per_row"] = ratio(float64(w.standCalls), float64(w.standRows))
	m["standing.recompiles"] = float64(w.standRecomp)
}

func (w *writeStream) extra(x *runner) []figure {
	var out []figure
	for _, k := range []string{"insert", "update", "delete", "retrain", "probe"} {
		out = append(out, figure{k + "_p50_ms", summarize(x.lat[k]).p50, "ms"})
	}
	out = append(out, figure{"wal_bytes_per_row", ratio(float64(w.dev.bytes.Load()-w.walStart), float64(w.rowsOut)), "B"})
	return out
}
