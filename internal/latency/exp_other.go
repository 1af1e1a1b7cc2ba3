//go:build !amd64

package latency

import "runtime"

// expGroups converts nothing: the kernel is amd64 assembly.
func expGroups(p *float64, groups int) int { return 0 }

func kernelMissing() string { return "amd64 (GOARCH is " + runtime.GOARCH + ")" }
