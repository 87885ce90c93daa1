package main

import (
	"path/filepath"
	"testing"

	"charmtrace/internal/cli"
	"charmtrace/internal/query"
	"charmtrace/internal/tracefile"
)

// TestLocalFileDetectsMessagePassing is the regression for the per-command
// loaders drifting apart: the lulesh-mpi trace read from a file with no -mp
// is a §3.4 message-passing trace, so chquery's local path must report the
// 18 phases `structure -in` and `chquery -app lulesh-mpi` report — it
// returned 44 while it applied the Charm++ defaults to every file.
func TestLocalFileDetectsMessagePassing(t *testing.T) {
	tr, want, err := cli.Generate("lulesh-mpi", cli.Params{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lulesh-mpi.trace")
	if err := tracefile.WriteFileBinary(path, tr); err != nil {
		t.Fatal(err)
	}
	fetch, err := newFetcher(fetcherConfig{input: &cli.Input{In: path}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := fetch(query.Spec{Select: query.SelectStructure})
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalRows != 18 || len(p.Rows) != 18 {
		t.Errorf("structure rows = %d (%d returned), want 18", p.TotalRows, len(p.Rows))
	}
	if p.Fingerprint != want.Fingerprint() {
		t.Errorf("fingerprint %s, want the workload's %s", p.Fingerprint, want.Fingerprint())
	}
}
