package wire

import (
	"math/rand"
	"testing"
)

func benchMessage(enc Encoding) *Message {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 64*32)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return &Message{Type: MsgForwardMulti, Layer: 3, Expert: 1, Seq: 9,
		Tensors: []Matrix{{Rows: 64, Cols: 32, Data: data, Enc: enc}}}
}

var benchEncodings = []Encoding{EncFP64, EncFP16, EncInt8}

// BenchmarkEncodeFrame measures the destination-passing encoder with a
// reused buffer — the steady-state send path. Must be 0 allocs/op.
func BenchmarkEncodeFrame(b *testing.B) {
	for _, enc := range benchEncodings {
		b.Run(enc.String(), func(b *testing.B) {
			m := benchMessage(enc)
			dst := make([]byte, 0, EncodedSize(m))
			b.SetBytes(int64(EncodedSize(m)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = AppendFrame(dst[:0], m)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeFrame measures the pooled decode path of the TCP
// transport: DecodePooled draws the message shell and tensor payloads from
// the codec pools, Release returns them. Steady state is 0 allocs/op.
func BenchmarkDecodeFrame(b *testing.B) {
	for _, enc := range benchEncodings {
		b.Run(enc.String(), func(b *testing.B) {
			body := mustEncode(b, benchMessage(enc))[4:]
			b.SetBytes(int64(len(body) + 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := DecodePooled(body)
				if err != nil {
					b.Fatal(err)
				}
				Release(m)
			}
		})
	}
}

// stepFrames builds the frames one forward dispatch of one MoE layer puts
// on the wire under the paper's geometry (H = 4096 features): one
// multi-tensor frame per worker.
func stepFrames(enc Encoding) []*Message {
	const (
		workers   = 4
		perWorker = 4
		rows      = 8
		features  = 4096
	)
	rng := rand.New(rand.NewSource(7))
	var msgs []*Message
	for w := 0; w < workers; w++ {
		ids := make([]float64, perWorker)
		tensors := make([]Matrix, 0, 1+perWorker)
		tensors = append(tensors, Matrix{Rows: 1, Cols: perWorker, Data: ids})
		for e := 0; e < perWorker; e++ {
			ids[e] = float64(w*perWorker + e)
			data := make([]float64, rows*features)
			for i := range data {
				data[i] = rng.NormFloat64()
			}
			tensors = append(tensors, Matrix{Rows: rows, Cols: features, Data: data, Enc: enc})
		}
		msgs = append(msgs, &Message{Type: MsgForwardMulti, Layer: 0,
			Expert: ExpertCoalesced, Seq: uint64(w), Tensors: tensors})
	}
	return msgs
}

// BenchmarkStepBytes reports the wire bytes and frame count of one layer's
// forward dispatch per encoding — the numbers behind the fp16 ≤ 30% and
// int8 ≤ 18% of fp64 bytes/step targets. ns/op covers encoding every
// frame of the step the way the TCP transport's Send does: AppendFrame
// into a pooled buffer, recycled after the write.
func BenchmarkStepBytes(b *testing.B) {
	for _, enc := range benchEncodings {
		b.Run(enc.String()+"/coalesced", func(b *testing.B) {
			msgs := stepFrames(enc)
			total := 0
			for _, m := range msgs {
				total += EncodedSize(m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, m := range msgs {
					buf, err := AppendFrame(GetBuf(EncodedSize(m))[:0], m)
					if err != nil {
						b.Fatal(err)
					}
					PutBuf(buf)
				}
			}
			b.ReportMetric(float64(total), "bytes/step")
			b.ReportMetric(float64(len(msgs)), "frames/step")
		})
	}
}
