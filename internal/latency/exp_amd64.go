package latency

// expGroups runs archExp's FMA branch in place on the first groups groups of
// four float64s at p, four lanes to a ymm register (exp_amd64.s). It stops at
// the first group holding an argument outside (−700, 700) or a NaN, and
// returns how many groups it converted.
//
//go:noescape
func expGroups(p *float64, groups int) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// kernelMissing names what the host lacks for expGroups, or returns "": FMA
// (CPUID leaf 1, ECX bit 12), AVX2 (leaf 7, EBX bit 5) and YMM state saved by
// the OS (OSXSAVE, leaf 1 ECX bit 27, then XCR0 bits 1–2) — math.Exp's own
// condition for its FMA branch, plus AVX2 for the kernel's integer steps.
func kernelMissing() string {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	switch {
	case ecx1&(1<<12) == 0:
		return "FMA"
	case maxLeaf < 7 || ebx7&(1<<5) == 0:
		return "AVX2"
	case ecx1&(1<<27) == 0:
		return "OSXSAVE"
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return "OS-saved YMM state"
	}
	return ""
}
