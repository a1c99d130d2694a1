//go:build purego

package cpu

const purego = true
