package query

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"reflect"
	"testing"
)

// asSpecError fails the test unless err is a *Error: every refusal a spec
// parser makes names its field, so the serving layer can answer 400.
func asSpecError(t *testing.T, what string, err error) {
	t.Helper()
	var qe *Error
	if !errors.As(err, &qe) {
		t.Fatalf("%s: rejection %v (%T) is not a *query.Error", what, err, err)
	}
}

// FuzzQuerySpec holds the two front doors of a query to one grammar: the
// GET parameters SpecFromParams reads and the JSON body ParseSpec reads
// (charmd's POST .../query and `structure -render query -spec`). Neither
// panics, every refusal is a *Error, and a spec accepted from parameters
// survives json.Marshal → ParseSpec unchanged.
func FuzzQuerySpec(f *testing.F) {
	f.Add("steps", "", "1,3", "9..40", "", "", "event,step", "7", "", []byte(`{"select":"steps","limit":10}`))
	f.Add("metrics", "0,2", "", "", "chare", "count,sum", "", "", "", []byte(`{"select":"metrics","group_by":"chare"}`))
	f.Add("viz", "", "", "4-30", "", "", "", "0", "", []byte(`{"select":"viz","filter":{"steps":{"from":4,"to":30}}}`))
	f.Add("structure", "", "", "", "", "", "id,chares", "", "abc", []byte(`{"select":"structure","fields":["id"]}`))
	f.Add("steps", "-1", "x", "3..1", "phase", "nope", "bogus", "-2", "", []byte(`{"filters":{}}`))
	// Found by this target: a cursor that is not UTF-8 was accepted, and
	// came back from JSON as U+FFFD; an empty aggs list was kept as [] where
	// the JSON form has none.
	f.Add("viz", "", "", "", "", "", "", "0", "\xd8", []byte("0"))
	f.Add("metrics", "0", "", "", "", " ", "", "", "", []byte(nil))
	// A spec with bytes after its JSON value: refused, naming (body).
	f.Add("steps", "", "", "", "", "", "", "2", "", []byte(`{"select":"steps","limit":2} junk`))
	f.Fuzz(func(t *testing.T, sel, phase, chares, steps, groupBy, aggs, fields, limit, page string, raw []byte) {
		if _, err := ParseSpec(bytes.NewReader(raw)); err != nil {
			asSpecError(t, fmt.Sprintf("ParseSpec(%q)", raw), err)
		} else if rest := afterValue(raw); len(rest) != 0 {
			t.Fatalf("ParseSpec(%q) accepted %q after the spec", raw, rest)
		}
		q := url.Values{}
		for k, v := range map[string]string{
			"phase": phase, "chares": chares, "steps": steps, "group_by": groupBy,
			"aggs": aggs, "fields": fields, "limit": limit, "page": page,
		} {
			if v != "" {
				q.Set(k, v)
			}
		}
		spec, used, err := SpecFromParams(sel, q)
		if err == nil && !used {
			err = spec.Validate()
		}
		if err != nil {
			asSpecError(t, fmt.Sprintf("SpecFromParams(%q, %v)", sel, q), err)
			return
		}
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("SpecFromParams(%q, %v) accepted a spec whose JSON %s ParseSpec refuses: %v", sel, q, body, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("SpecFromParams(%q, %v) = %#v, but its JSON %s parses to %#v", sel, q, spec, body, back)
		}
	})
}

// afterValue is what follows the first JSON value of b, less JSON white
// space.
func afterValue(b []byte) []byte {
	var v json.RawMessage
	d := json.NewDecoder(bytes.NewReader(b))
	d.Decode(&v)
	return bytes.Trim(b[d.InputOffset():], " \t\r\n")
}

// FuzzStepRange: the one window parser never panics, refuses with a *Error
// on "steps", and a range it accepts re-parses identically from from..to.
func FuzzStepRange(f *testing.F) {
	for _, s := range []string{"9..40", "5", "4-30", "-3..-1", "+2..7", "1..", "..1", "1..2..3", "2147483648", "x"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		r, err := ParseStepRange(v)
		if err != nil {
			asSpecError(t, fmt.Sprintf("ParseStepRange(%q)", v), err)
			return
		}
		again, err := ParseStepRange(fmt.Sprintf("%d..%d", r.From, r.To))
		if err != nil || *again != *r {
			t.Fatalf("ParseStepRange(%q) = %+v re-parses to %+v, %v", v, *r, again, err)
		}
	})
}

// FuzzQueryCursor holds a page cursor to one spelling: decodeCursor never
// panics, a cursor it accepts is exactly what encodeCursor mints for the
// offset it decoded, every minted cursor decodes back to its offset, and a
// cursor minted under one spec is refused under a spec whose canonical form
// differs.
func FuzzQueryCursor(f *testing.F) {
	spec := Spec{Select: "steps", Limit: 10}
	spelled := func(offset string) string { return "cq1 " + specHash(spec) + " " + offset }
	f.Add(encodeCursor(5, spec), 5, "steps", 10, "steps", 20)
	// A signed or zero-padded offset once passed as another spelling of a
	// real cursor; padded base64 is the other near miss.
	for _, offset := range []string{"+5", "05", "-0"} {
		f.Add(base64.RawURLEncoding.EncodeToString([]byte(spelled(offset))), 5, "steps", 10, "steps", 10)
	}
	f.Add(base64.URLEncoding.EncodeToString([]byte(spelled("5"))), 0, "steps", 10, "metrics", 10)
	f.Fuzz(func(t *testing.T, cursor string, offset int, selA string, limitA int, selB string, limitB int) {
		a, b := Spec{Select: selA, Limit: limitA}, Spec{Select: selB, Limit: limitB}
		if n, err := decodeCursor(cursor, a); err != nil {
			asSpecError(t, fmt.Sprintf("decodeCursor(%q)", cursor), err)
		} else if minted := encodeCursor(n, a); cursor != minted {
			t.Fatalf("decodeCursor accepted %q as offset %d, which is minted as %q", cursor, n, minted)
		}
		if offset < 0 {
			offset = -(offset + 1)
		}
		minted := encodeCursor(offset, a)
		if n, err := decodeCursor(minted, a); err != nil || n != offset {
			t.Fatalf("cursor minted for offset %d decodes to %d, %v", offset, n, err)
		}
		if _, err := decodeCursor(minted, b); err == nil && a.canonical() != b.canonical() {
			t.Fatalf("cursor minted under %s is accepted under %s", a.canonical(), b.canonical())
		}
	})
}
