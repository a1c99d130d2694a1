// Package checkpoint decodes bytes read back from a file: a torn or
// hostile generation must come back as an error the resume path can fall
// back from, not take the master down.
package checkpoint

import "encoding/binary"

func decodeCount(b []byte) int {
	if len(b) < 4 {
		panic("checkpoint: short header") // want "panic in runtime package fix/checkpoint"
	}
	return int(binary.LittleEndian.Uint32(b))
}
