//go:build !amd64 || purego

package cpu

func probe() (avx2, f16c, fma, avx512 bool) { return false, false, false, false }
