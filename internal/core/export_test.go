package core

import (
	"fmt"

	"charmtrace/internal/partition"
	"charmtrace/internal/trace"
)

// CheckPartInfo extracts tr with every buildPartInfo result held to
// refPartInfo, and returns how many it checked. For the external tests,
// which can reach the internal/cli workloads.
func CheckPartInfo(tr *trace.Trace, opt Options) (int, error) {
	calls := 0
	var first error
	partInfoHook = func(tr *trace.Trace, a *atoms, v *partition.View, info *partInfos) {
		calls++
		if err := refPartInfo(tr, a, v, info); err != nil && first == nil {
			first = fmt.Errorf("call %d: %w", calls, err)
		}
	}
	defer func() { partInfoHook = nil }()
	if _, err := Extract(tr, opt); err != nil {
		return calls, err
	}
	return calls, first
}
