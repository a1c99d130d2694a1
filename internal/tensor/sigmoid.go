package tensor

import "math"

// Sigmoid writes dst[i] = σ(z[i]) = 1/(1+math.Exp(−z[i])) for every i of
// z, bit for bit what that scalar expression gives: math.Exp is the
// definition, and the AVX-512 body (sigmoid_amd64.s), where it runs,
// replays the operation sequence of math.Exp's own amd64 branch lane for
// lane. It allocates nothing.
func Sigmoid(dst, z []float64) {
	dst = dst[:len(z)]
	for i := 0; i < len(z); {
		i += sigmoidVec(dst[i:], z[i:])
		// The vector body stops before the last len(z) mod 8 elements, and
		// before a group of eight with a lane math.Exp would send off its
		// main path; the scalar expression finishes that group.
		for end := min(i+8, len(z)); i < end; i++ {
			dst[i] = sigmoid(z[i])
		}
	}
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// expInto writes dst[i] = math.Exp(x[i]) for every i of x, bit for bit,
// eight lanes at a time where the AVX-512 body runs (the body of Sigmoid,
// without its negation and its 1/(1+e)), the scalar call elsewhere and for
// the groups and tail Sigmoid finishes in Go too. dst may be x.
func expInto(dst, x []float64) {
	dst = dst[:len(x)]
	for i := 0; i < len(x); {
		i += expVec(dst[i:], x[i:])
		for end := min(i+8, len(x)); i < end; i++ {
			dst[i] = math.Exp(x[i])
		}
	}
}
