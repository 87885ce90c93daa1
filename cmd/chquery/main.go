// Command chquery is the charmd client: it posts one structure query —
// indexed slicing, aggregation and paging over a trace's recovered logical
// structure — or one level-of-detail spec to a remote charmd (or a
// charm-gateway in front of several). The same specs run locally, over a
// trace file or a generated workload, as `structure -render query|lod`.
//
// Usage:
//
//	chquery -server http://localhost:8080 -digest <digest>
//	chquery -server <url> -digest <digest> -spec '{"select":"steps","filter":{"chares":[1,3],"steps":{"from":9,"to":40}}}'
//	chquery -server <url> -digest <digest> -spec '{"select":"viz"}' -all
//	chquery -server <url> -digest <digest> -render lod -spec '{"resolution":64}'
//
// -spec is the JSON body of charmd's POST .../query or .../lod (prefix @ to
// read it from a file); it defaults to {"select":"structure"} for query and
// {} for lod. A query spec's limit pages the result; -all follows cursors
// until the result is exhausted.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"charmtrace/internal/cli"
	"charmtrace/internal/lod"
	"charmtrace/internal/query"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chquery:", err)
		os.Exit(1)
	}
}

// page is the wire/output shape of one charmd query response. Rows are kept
// as the bytes the server rendered, so -all can concatenate pages without
// re-reading a number.
type page struct {
	Digest      string            `json:"digest,omitempty"`
	Fingerprint string            `json:"fingerprint,omitempty"`
	Select      string            `json:"select"`
	TotalRows   int               `json:"total_rows"`
	Window      *query.StepRange  `json:"window,omitempty"`
	Rows        []json.RawMessage `json:"rows"`
	NextCursor  string            `json:"next_cursor,omitempty"`
}

// defaultSpecs are the -spec bodies posted when none is given.
var defaultSpecs = map[string]string{"query": `{"select":"structure"}`, "lod": `{}`}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("chquery", flag.ExitOnError)
	server := fs.String("server", "", "base URL of the charmd (or charm-gateway) to query; requires -digest")
	digest := fs.String("digest", "", "trace digest on the server")
	mp := fs.Bool("mp", false, "message-passing analysis options (preset=mp)")
	render := fs.String("render", "query", "query | lod: the endpoint -spec is posted to")
	rawSpec := fs.String("spec", "", `the JSON body of charmd's POST .../query or .../lod (@file reads it from a file; default {"select":"structure"} for query, {} for lod)`)
	all := fs.Bool("all", false, "-render query: follow cursors and print the concatenated result")
	retries := fs.Int("retries", 3, "extra attempts after a 429 or 503 (Retry-After honored, exponential backoff otherwise)")
	fs.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0

	switch {
	case *server == "":
		return errors.New("-server is required: chquery only talks to charmd; for a trace file or workload run structure -render query|lod -spec <json|@file>")
	case *digest == "":
		return errors.New("-server requires -digest")
	case defaultSpecs[*render] == "":
		return fmt.Errorf("unknown -render %q (want query or lod)", *render)
	case *render == "lod" && *all:
		return errors.New("-all needs -render query: a LOD response is one page")
	}
	if *rawSpec == "" {
		*rawSpec = defaultSpecs[*render]
	}
	r, err := cli.SpecArg(*rawSpec)
	if err != nil {
		return err
	}
	target := strings.TrimSuffix(*server, "/") + "/v1/traces/" + *digest + "/" + *render
	if *mp {
		target += "?preset=mp"
	}
	rt := newRetrier(*retries)

	if *render == "lod" {
		sp, err := lod.ParseSpec(r)
		if err != nil {
			return err
		}
		data, err := post(target, sp, rt)
		if err != nil {
			return err
		}
		_, err = stdout.Write(data)
		return err
	}

	spec, err := query.ParseSpec(r)
	if err != nil {
		return err
	}
	if *all && spec.Limit == 0 {
		// -all needs pages to follow; pick a transport-friendly page size.
		spec.Limit = 1000
	}
	out, err := postPage(target, spec, rt)
	if err != nil {
		return err
	}
	for *all && out.NextCursor != "" {
		spec.Cursor = out.NextCursor
		next, err := postPage(target, spec, rt)
		if err != nil {
			return err
		}
		out.Rows = append(out.Rows, next.Rows...)
		out.NextCursor = next.NextCursor
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// postPage fetches one page from a charmd query endpoint.
func postPage(target string, spec query.Spec, rt *retrier) (*page, error) {
	data, err := post(target, spec, rt)
	if err != nil {
		return nil, err
	}
	var p page
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// post sends one JSON spec to a charmd analysis endpoint, retrying
// transient pressure (429/503) per the retrier's policy, and returns the 200
// body; any other status becomes the server's decoded error.
func post(target string, spec any, rt *retrier) ([]byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := rt.do(func() (*http.Response, error) {
		return http.Post(target, "application/json", bytes.NewReader(body))
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return data, nil
	}
	var e struct {
		Error string `json:"error"`
		Field string `json:"field"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		if e.Field != "" {
			return nil, fmt.Errorf("server: %s (field %s)", e.Error, e.Field)
		}
		return nil, fmt.Errorf("server: %s", e.Error)
	}
	return nil, fmt.Errorf("server: status %d: %s", resp.StatusCode, data)
}
