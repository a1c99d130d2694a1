//go:build !purego

package cpu

// cpuid executes CPUID with the given leaf and subleaf (cpu_amd64.s).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0 (cpu_amd64.s). Only valid when
// CPUID reports OSXSAVE.
func xgetbv() uint32

func probe() (avx2, f16c bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return false, false
	}
	const osxsave, avx, f16cBit = 1 << 27, 1 << 28, 1 << 29
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv()&6 != 6 {
		return false, false
	}
	f16c = ecx1&f16cBit != 0
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		avx2 = ebx7&(1<<5) != 0
	}
	return avx2, f16c
}
