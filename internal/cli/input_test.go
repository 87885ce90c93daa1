package cli

import (
	"flag"
	"path/filepath"
	"testing"

	"charmtrace/internal/tracefile"
)

// TestInputFlagRegistration: NewInput binds the five trace-selection flags
// and leaves -mp to the tools that extract.
func TestInputFlagRegistration(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	NewInput(fs)
	for _, name := range []string{"in", "app", "iters", "scale", "seed"} {
		if fs.Lookup(name) == nil {
			t.Errorf("NewInput did not register -%s", name)
		}
	}
	if fs.Lookup("mp") != nil {
		t.Error("NewInput registered -mp")
	}
}

// TestInputFileResolvesWorkloadOptions is the loader property: every
// workload's trace, written to a file and loaded back with no -mp, resolves
// the options its generator returns — so the offline tools analyze a §3.4
// message-passing trace as one whichever of them reads it.
func TestInputFileResolvesWorkloadOptions(t *testing.T) {
	dir := t.TempDir()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p := Params{}
			if name == "mergetree" {
				p.Scale = 64
			}
			tr, want, err := Generate(name, p)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, name+".trace")
			if err := tracefile.WriteFileBinary(path, tr); err != nil {
				t.Fatal(err)
			}
			in := &Input{In: path}
			got, opt, err := in.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Events) != len(tr.Events) {
				t.Fatalf("loaded %d events, wrote %d", len(got.Events), len(tr.Events))
			}
			if opt.Fingerprint() != want.Fingerprint() {
				t.Errorf("file resolves options %s, the workload's are %s", opt.Fingerprint(), want.Fingerprint())
			}
			in.MP = true
			if _, opt, err = in.Load(); err != nil || !opt.MessagePassing {
				t.Errorf("-mp did not force the message-passing options (err %v)", err)
			}
		})
	}
}

// TestInputNeedsASource: neither -in nor -app is an error naming both.
func TestInputNeedsASource(t *testing.T) {
	if _, _, err := (&Input{}).Load(); err == nil {
		t.Fatal("Load with no input succeeded")
	}
	if _, err := (&Input{}).Trace(); err == nil {
		t.Fatal("Trace with no input succeeded")
	}
}
