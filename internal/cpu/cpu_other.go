//go:build !amd64 || purego

package cpu

func probe() (avx2, f16c bool) { return false, false }
