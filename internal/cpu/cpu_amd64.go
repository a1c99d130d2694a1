//go:build !purego

package cpu

// cpuid executes CPUID with the given leaf and subleaf (cpu_amd64.s).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0 (cpu_amd64.s). Only valid when
// CPUID reports OSXSAVE.
func xgetbv() uint32

func probe() (avx2, f16c, fma, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return false, false, false, false
	}
	const fmaBit, osxsave, avx, f16cBit = 1 << 12, 1 << 27, 1 << 28, 1 << 29
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false, false, false, false
	}
	xcr0 := xgetbv()
	if xcr0&6 != 6 {
		return false, false, false, false
	}
	f16c = ecx1&f16cBit != 0
	fma = ecx1&fmaBit != 0
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		avx2 = ebx7&(1<<5) != 0
		avx512 = ebx7&(1<<16) != 0 && xcr0&0xE6 == 0xE6 && avx2 && fma
	}
	return avx2, f16c, fma, avx512
}
