package main

import (
	"os"
	"strings"
	"testing"
)

// TestNeedsServer: chquery is the charmd client only. Without -server it
// refuses, naming the command that runs the same spec locally.
func TestNeedsServer(t *testing.T) {
	args := os.Args
	t.Cleanup(func() { os.Args = args })
	os.Args = []string{"chquery", "-select", "structure"}
	if err := run(); err == nil || !strings.Contains(err.Error(), "structure -render query|lod") {
		t.Fatalf("chquery with no -server: %v, want a refusal naming structure -render query|lod", err)
	}
}
