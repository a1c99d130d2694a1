package transport

import (
	"testing"

	"repro/internal/wire"
)

func benchMsg() *wire.Message {
	return &wire.Message{Type: wire.MsgForwardMulti, Layer: 1, Expert: 2,
		Tensors: []wire.Matrix{{Rows: 32, Cols: 32, Data: make([]float64, 1024)}}}
}

func BenchmarkPipeRoundTrip(b *testing.B) {
	x, y := Pipe()
	defer x.Close()
	m := benchMsg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Send(m); err != nil {
			b.Fatal(err)
		}
		if _, err := y.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := Dial(l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	defer server.Close()
	m := benchMsg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(m); err != nil {
			b.Fatal(err)
		}
		if _, err := server.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}
