//go:build !purego

package cpu

const purego = false
