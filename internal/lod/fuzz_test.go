package lod

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/url"
	"reflect"
	"testing"
)

// FuzzLodSpec holds the two front doors of a LOD request to one grammar:
// the GET parameters SpecFromParams reads and the JSON body ParseSpec reads
// (charmd's POST .../lod and `structure -render lod -spec`). Neither panics,
// every refusal is a *Error, and a spec accepted from parameters survives
// json.Marshal → ParseSpec unchanged.
func FuzzLodSpec(f *testing.F) {
	f.Add("8", "", "", "", "", "", "", []byte(`{"resolution":8}`))
	f.Add("native", "5..25", "2", "4", "false", "true", "", []byte(`{"resolution":"native","render":true}`))
	f.Add("", "3", "-1", "x", "maybe", "1", "abc", []byte(`{"steps":{"from":5,"to":25},"max_rows":2}`))
	f.Add("0", "9..x", "", "", "0", "", "", []byte(`{"resolution":-1,"bogus":1}`))
	// Found by this target: a diff digest that is not UTF-8 was accepted,
	// and came back from JSON as U+FFFD.
	f.Add("1", "", "", "", "", "", "\x9e", []byte(nil))
	f.Fuzz(func(t *testing.T, resolution, steps, maxRows, maxEdges, edges, render, diff string, raw []byte) {
		var le *Error
		if _, err := ParseSpec(bytes.NewReader(raw)); err != nil && !errors.As(err, &le) {
			t.Fatalf("ParseSpec(%q): rejection %v (%T) is not a *lod.Error", raw, err, err)
		}
		q := url.Values{}
		for k, v := range map[string]string{
			"resolution": resolution, "steps": steps, "max_rows": maxRows, "max_edges": maxEdges,
			"edges": edges, "render": render, "diff": diff,
		} {
			if v != "" {
				q.Set(k, v)
			}
		}
		sp, err := SpecFromParams(q)
		if err != nil {
			if !errors.As(err, &le) {
				t.Fatalf("SpecFromParams(%v): rejection %v (%T) is not a *lod.Error", q, err, err)
			}
			return
		}
		body, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("SpecFromParams(%v) accepted a spec whose JSON %s ParseSpec refuses: %v", q, body, err)
		}
		if !reflect.DeepEqual(back, sp) {
			t.Fatalf("SpecFromParams(%v) = %#v, but its JSON %s parses to %#v", q, sp, body, back)
		}
	})
}
