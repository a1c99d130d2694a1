package checkpoint

import (
	"math/rand"
	"testing"

	"repro/internal/moe"
)

func BenchmarkSaveLoad(b *testing.B) {
	cfg := moe.Config{Vocab: 96, D: 32, Heads: 4, Hidden: 64, Layers: 4, Experts: 6, TopK: 2}
	rng := rand.New(rand.NewSource(1))
	m := moe.NewModel(cfg, rng, true)
	grid := moe.NewExpertGrid(cfg, rng, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := Encode(m, grid)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// The run-store benchmarks use stepbench churn's shape (churnRunState):
// a 22 MB generation, nearly all of it the embedded expert section.

func BenchmarkEncodeRun(b *testing.B) {
	rs := churnRunState(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := encodeRun(rs)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(raw)))
	}
}

// BenchmarkRunStoreSave is the whole fsynced Save: encode, write, fsync,
// rename, dir sync, retention.
func BenchmarkRunStoreSave(b *testing.B) {
	rs := churnRunState(128)
	s := &RunStore{Dir: b.TempDir()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, size, err := s.Save(rs)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(size)
	}
}

func BenchmarkRunStoreLoad(b *testing.B) {
	s := &RunStore{Dir: b.TempDir()}
	_, size, err := s.Save(churnRunState(128))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.LoadLatest(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeExpertSnapshot(b *testing.B) {
	raw, err := encodeExpertSnapshot(churnRunState(128).Experts)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeExpertSnapshot(raw); err != nil {
			b.Fatal(err)
		}
	}
}
