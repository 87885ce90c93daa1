// Command traceprofile prints a Projections-style aggregate profile of a
// trace: time per entry method, busy/idle per processor, message volume.
//
// Usage:
//
//	traceprofile -in run.trace
//	traceprofile -app lulesh
//	traceprofile -app jacobi -from 1000 -to 20000   # window first
package main

import (
	"flag"
	"fmt"
	"os"

	"charmtrace/internal/cli"
	"charmtrace/internal/profile"
	"charmtrace/internal/trace"
)

func main() {
	input := cli.NewInput(flag.CommandLine)
	from := flag.Int64("from", -1, "window start (virtual ns; -1 = trace start)")
	to := flag.Int64("to", -1, "window end (virtual ns; -1 = trace end)")
	tele := cli.NewProfiling("traceprofile", flag.CommandLine)
	flag.Parse()
	if err := tele.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "traceprofile:", err)
		os.Exit(1)
	}

	tr, err := input.Trace()
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceprofile:", err)
		os.Exit(1)
	}
	if *from >= 0 || *to >= 0 {
		lo, hi := tr.Span()
		f, t := lo, hi+1
		if *from >= 0 {
			f = trace.Time(*from)
		}
		if *to >= 0 {
			t = trace.Time(*to)
		}
		tr, err = trace.Window(tr, f, t)
		if err != nil {
			fmt.Fprintln(os.Stderr, "traceprofile:", err)
			os.Exit(1)
		}
		fmt.Printf("window [%d, %d): %d blocks, %d events\n\n", f, t, len(tr.Blocks), len(tr.Events))
	}
	fmt.Print(profile.Build(tr).String())
	if err := tele.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "traceprofile:", err)
		os.Exit(1)
	}
}
