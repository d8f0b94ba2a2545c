package main

import (
	"fmt"
	"math/rand"

	"minequery"
)

// Feature domains shared by every workload. age and income are the
// mining features; visits is a data-only column the filters and
// aggregates read.
const (
	ageMin, ageMax = 18, 79
	incomeMax      = 99
	visitsMax      = 49
)

// row is one generated customer, kept by the benchmark as its own
// record of what it loaded or wrote. A nil age or income is SQL NULL.
type row struct {
	id, visits  int64
	age, income *int64
	segment     string
}

func ip(v int64) *int64 { return &v }

// segmentRule is the ground truth the segment labels follow: a rare
// "vip" box (about 1.6% of rows), "budget" for low incomes (25%), and
// "regular" for the rest.
func segmentRule(age, income int64) string {
	switch {
	case income >= 92 && age >= 30 && age < 50:
		return "vip"
	case income < 25:
		return "budget"
	}
	return "regular"
}

// genRow draws one non-NULL customer.
func genRow(r *rand.Rand, id int64) row {
	age := int64(ageMin + r.Intn(ageMax-ageMin+1))
	income := int64(r.Intn(incomeMax + 1))
	return row{id: id, age: ip(age), income: ip(income), visits: int64(r.Intn(visitsMax + 1)), segment: segmentRule(age, income)}
}

func genRows(r *rand.Rand, n int, firstID int64) []row {
	out := make([]row, n)
	for i := range out {
		out[i] = genRow(r, firstID+int64(i))
	}
	return out
}

func optInt(p *int64) minequery.Value {
	if p == nil {
		return minequery.Null()
	}
	return minequery.Int(*p)
}

func (w row) tuple() minequery.Tuple {
	return minequery.Tuple{minequery.Int(w.id), optInt(w.age), optInt(w.income), minequery.Int(w.visits), minequery.Str(w.segment)}
}

func sqlInt(p *int64) string {
	if p == nil {
		return "NULL"
	}
	return fmt.Sprint(*p)
}

// insertSQL is the single-row INSERT a user would write for w.
func (w row) insertSQL(table string) string {
	return fmt.Sprintf("INSERT INTO %s (id, age, income, visits, segment) VALUES (%d, %s, %s, %d, '%s')",
		table, w.id, sqlInt(w.age), sqlInt(w.income), w.visits, w.segment)
}

func tuples(rows []row) []minequery.Tuple {
	out := make([]minequery.Tuple, len(rows))
	for i, w := range rows {
		out[i] = w.tuple()
	}
	return out
}

func customerSchema() *minequery.Schema {
	return minequery.MustSchema(
		minequery.Column{Name: "id", Kind: minequery.KindInt},
		minequery.Column{Name: "age", Kind: minequery.KindInt},
		minequery.Column{Name: "income", Kind: minequery.KindInt},
		minequery.Column{Name: "visits", Kind: minequery.KindInt},
		minequery.Column{Name: "segment", Kind: minequery.KindString},
	)
}

// treeOpts bounds the Go-API decision trees: depth 5 is enough for the
// segment rule, and a leaf needs 40 rows (the vip box holds about 80 of
// the training sample).
var treeOpts = minequery.TreeOptions{MinLeaf: 40, MaxDepth: 5}

// trainRows is the size of the sample the decision trees are trained
// on, a copy of the first generated rows in a table of its own: tree
// induction costs about 90 µs per row.
const trainRows = 5000

// disjunctFilter is a multi-disjunct data predicate over the data
// columns, in the shape of the disjunctive column-store selections the
// columnar scan orders by measured selectivity.
type disjunctFilter struct {
	ageHi, incomeLo, visitsEq, ageLo int64
}

// genFilter draws only the visits constant, so every seed's filter
// keeps the same share of the rows (about 9%).
func genFilter(r *rand.Rand) disjunctFilter {
	return disjunctFilter{ageHi: ageMax - 1, incomeLo: 1, visitsEq: int64(r.Intn(visitsMax + 1)), ageLo: ageMin}
}

func (f disjunctFilter) where() string {
	return fmt.Sprintf("age >= %d OR income <= %d OR visits = %d OR age <= %d", f.ageHi, f.incomeLo, f.visitsEq, f.ageLo)
}

func (f disjunctFilter) match(w row) bool {
	return (w.age != nil && *w.age >= f.ageHi) || (w.income != nil && *w.income <= f.incomeLo) ||
		w.visits == f.visitsEq || (w.age != nil && *w.age <= f.ageLo)
}

// predJoin is the PREDICTION JOIN clause binding model's features (age,
// income) to table t's columns under alias.
func predJoin(t, model, alias string) string {
	return fmt.Sprintf("PREDICTION JOIN %s AS %s ON %s.age = %s.age AND %s.income = %s.income", model, alias, alias, t, alias, t)
}
