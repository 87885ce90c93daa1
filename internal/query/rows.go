package query

import (
	"bytes"
	"context"
	"slices"

	"charmtrace/internal/jsonw"
)

// Rows is one page of query rows held as typed columns, in column-name
// order — the order encoding/json gave the keys of the map rows this
// replaced, so a page renders to the same bytes. The runners slice their
// ordered id list down to the page first and fill columns for those ids
// only: a row that is not on the page never exists in any form.
type Rows struct {
	n    int
	cols []column
}

// column is one named column: vals is the []int64, []float64, []string or
// []bool of its n values.
type column struct {
	name string
	vals any
}

// Len is the number of rows on the page.
func (r Rows) Len() int { return r.n }

// Render writes the page as an array of row objects.
func (r Rows) Render(w *jsonw.Writer) {
	w.Arr()
	for i := 0; i < r.n && w.Err() == nil; i++ {
		w.Obj()
		for c := range r.cols {
			col := &r.cols[c]
			w.Key(col.name)
			switch vals := col.vals.(type) {
			case []int64:
				w.Int(vals[i])
			case []float64:
				w.Float(vals[i])
			case []string:
				w.Str(vals[i])
			case []bool:
				w.Bool(vals[i])
			}
		}
		w.End()
	}
	w.End()
}

// MarshalJSON makes json.Marshal and MarshalIndent of a *Result produce
// what they did over map rows.
func (r Rows) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	w := jsonw.New(context.Background(), &buf)
	r.Render(w)
	err := w.Close()
	return buf.Bytes(), err
}

// RenderFields writes the result's members into the object open on w, in
// the order and with the omissions of its struct tags.
func (r *Result) RenderFields(w *jsonw.Writer) {
	w.Key("select").Str(r.Select)
	w.Key("total_rows").Int(int64(r.TotalRows))
	if r.Window != nil {
		w.Key("window").Obj().Key("from").Int(int64(r.Window.From)).Key("to").Int(int64(r.Window.To)).End()
	}
	r.Rows.Render(w.Key("rows"))
	if r.NextCursor != "" {
		w.Key("next_cursor").Str(r.NextCursor)
	}
}

// page builds the Rows of one page of n rows, keeping only the columns the
// spec's Fields name (all of them when it names none).
type page struct {
	*Rows
	fields []string
}

// add gives the page a column as a function of the row's position on it —
// not evaluated if the projection drops the column — keeping name order.
func add[T int64 | float64 | string | bool](p *page, name string, at func(i int) T) {
	if len(p.fields) > 0 && !slices.Contains(p.fields, name) {
		return
	}
	vals := make([]T, p.n)
	for i := range vals {
		vals[i] = at(i)
	}
	pos := len(p.cols)
	for pos > 0 && p.cols[pos-1].name > name {
		pos--
	}
	p.cols = slices.Insert(p.cols, pos, column{name, vals})
}
