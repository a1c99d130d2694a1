// Package moe is out of scope: it parses nothing from a peer or a file,
// so a panic here is a constructor precondition on values the program
// itself built — a programming error caught in development.
package moe

// NewGate rejects a statically-invalid configuration.
func NewGate(experts, topK int) int {
	if topK <= 0 || topK > experts {
		panic("moe: topK must be in [1, experts]")
	}
	return experts * topK
}
