package cpu

import (
	"runtime"
	"testing"
)

// TestFlagsOffUnderPuregoAndOffAMD64: builds that must select the
// portable bodies see every flag false.
func TestFlagsOffUnderPuregoAndOffAMD64(t *testing.T) {
	if !purego && runtime.GOARCH == "amd64" {
		t.Skip("amd64 without the purego tag probes the CPU")
	}
	if HasAVX2 || HasF16C || HasFMA || HasAVX512 {
		t.Fatalf("flags AVX2=%v F16C=%v FMA=%v AVX512=%v, want all false", HasAVX2, HasF16C, HasFMA, HasAVX512)
	}
}

// TestAVX512ImpliesAVX2AndFMA: the AVX-512 bodies may assume both, so
// the AVX-512 GEMM tiles — fused multiply-add chains — never run where the
// AVX2 tile's own gate, HasAVX2 && HasFMA, is shut. (That the tensor
// package applies that gate is TestTileBodiesFollowCPUFlags; it cannot
// be asserted here, below the package that imports this one.)
func TestAVX512ImpliesAVX2AndFMA(t *testing.T) {
	if HasAVX512 && !(HasAVX2 && HasFMA) {
		t.Fatalf("HasAVX512 set with AVX2=%v FMA=%v", HasAVX2, HasFMA)
	}
}
