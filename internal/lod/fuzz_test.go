package lod

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/url"
	"reflect"
	"testing"

	"charmtrace/internal/conformance"
	"charmtrace/internal/core"
	"charmtrace/internal/query"
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
	// A spec with bytes after its JSON value: refused, naming (body).
	f.Add("8", "", "", "", "", "", "", []byte(`{"resolution":8}{"resolution":16}`))
	f.Fuzz(func(t *testing.T, resolution, steps, maxRows, maxEdges, edges, render, diff string, raw []byte) {
		var le *Error
		if _, err := ParseSpec(bytes.NewReader(raw)); err != nil && !errors.As(err, &le) {
			t.Fatalf("ParseSpec(%q): rejection %v (%T) is not a *lod.Error", raw, err, err)
		} else if err == nil {
			var v json.RawMessage
			d := json.NewDecoder(bytes.NewReader(raw))
			d.Decode(&v)
			if rest := bytes.Trim(raw[d.InputOffset():], " \t\r\n"); len(rest) != 0 {
				t.Fatalf("ParseSpec(%q) accepted %q after the spec", raw, rest)
			}
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

// FuzzLodQuery holds lazily built levels to the dense oracle's eagerly
// built ones through Query. The input decodes to a request — a resolution
// (0 is native), an optional step window given in 256ths of the trace's
// step count (so it can overshoot the last step), max_rows, max_edges,
// edges off, render — and an order in which levels are first touched
// before it. For each of three zoo traces a fresh pyramid touches its
// levels in that order and answers the request; the response must marshal
// to the oracle's bytes, or both must refuse it.
func FuzzLodQuery(f *testing.F) {
	type oracle struct {
		s    *core.Structure
		want *densePyramid
	}
	var traces []oracle
	for _, w := range conformance.Zoo() {
		switch w.Name {
		case "jacobi", "lassen", "mergetree":
			s, err := core.Extract(w.MustGen(), w.Opts)
			if err != nil {
				f.Fatal(err)
			}
			traces = append(traces, oracle{s, denseBuild(s, nil)})
		}
	}
	if len(traces) != 3 {
		f.Fatalf("found %d of the three zoo traces", len(traces))
	}
	// The served shapes: the resolution=64 overview, the resolution=256
	// zoom over an eighth of the steps with max_rows=16 (after the
	// overview's level), and one native step.
	f.Add(uint16(64), false, uint16(0), uint16(0), uint8(0), uint8(0), false, false, []byte(nil))
	f.Add(uint16(256), true, uint16(64), uint16(96), uint8(16), uint8(0), false, false, []byte{255})
	f.Add(uint16(0), true, uint16(128), uint16(128), uint8(0), uint8(0), false, true, []byte{0, 3, 1})
	f.Add(uint16(8), true, uint16(300), uint16(900), uint8(3), uint8(5), true, false, []byte{7, 7, 2})
	f.Fuzz(func(t *testing.T, res uint16, window bool, from, to uint16, maxRows, maxEdges uint8, noEdges, render bool, order []byte) {
		for _, tc := range traces {
			steps := int64(tc.s.MaxStep()) + 1
			sp := Spec{Resolution: Resolution(res), MaxRows: int(maxRows), MaxEdges: int(maxEdges), NoEdges: noEdges, Render: render}
			if window {
				sp.Steps = &query.StepRange{From: int32(int64(from) * steps >> 8), To: int32(int64(to) * steps >> 8)}
			}
			p := Build(tc.s, nil)
			for _, l := range order {
				if p.NumLevels() > 0 {
					p.Level(int(l) % p.NumLevels())
				}
			}
			got, gerr := p.Query(sp, nil)
			want, werr := tc.want.Query(sp, nil)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%+v: err %v, oracle %v", sp, gerr, werr)
			}
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(want)
			if !bytes.Equal(gb, wb) {
				t.Fatalf("%+v after touching %v: response differs from the oracle's:\n%s\n----\n%s", sp, order, gb, wb)
			}
		}
	})
}
