package transport

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/testutil"
	"repro/internal/wire"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	want := &wire.Message{Type: wire.MsgForwardMulti, Layer: 3, Seq: 1,
		Tensors: []wire.Matrix{{Rows: 1, Cols: 2, Data: []float64{1, 2}}}}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Layer != 3 || !testutil.Close(got.Tensors[0].Data[1], 2) {
		t.Fatalf("message mangled: %+v", got)
	}
}

func TestPipeOrdering(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	for i := uint64(0); i < 10; i++ {
		if err := a.Send(&wire.Message{Type: wire.MsgAck, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 10; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq != i {
			t.Fatalf("out of order: got %d, want %d", m.Seq, i)
		}
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	a.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := a.Send(&wire.Message{Type: wire.MsgAck}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
}

func TestPipeBidirectional(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	if err := a.Send(&wire.Message{Type: wire.MsgStep}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(&wire.Message{Type: wire.MsgAck}); err != nil {
		t.Fatal(err)
	}
	m1, err := b.Recv()
	if err != nil || m1.Type != wire.MsgStep {
		t.Fatalf("b.Recv = %v, %v", m1, err)
	}
	m2, err := a.Recv()
	if err != nil || m2.Type != wire.MsgAck {
		t.Fatalf("a.Recv = %v, %v", m2, err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var serverConn Conn
	var acceptErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serverConn, acceptErr = l.Accept()
	}()

	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	wg.Wait()
	if acceptErr != nil {
		t.Fatal(acceptErr)
	}
	defer serverConn.Close()

	want := &wire.Message{Type: wire.MsgBackwardMulti, Layer: 9, Expert: 2, Seq: 77,
		Tensors: []wire.Matrix{{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}}}
	if err := client.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := serverConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Layer != 9 || got.Expert != 2 || got.Seq != 77 || !testutil.Close(got.Tensors[0].Data[3], 4) {
		t.Fatalf("TCP message mangled: %+v", got)
	}
	// Reply path.
	if err := serverConn.Send(&wire.Message{Type: wire.MsgAck, Seq: 77}); err != nil {
		t.Fatal(err)
	}
	ack, err := client.Recv()
	if err != nil || ack.Type != wire.MsgAck {
		t.Fatalf("ack = %v, %v", ack, err)
	}
}

func TestTCPConcurrentSenders(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
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
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	defer server.Close()

	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seq uint64) {
			defer wg.Done()
			_ = client.Send(&wire.Message{Type: wire.MsgAck, Seq: seq,
				Tensors: []wire.Matrix{{Rows: 1, Cols: 8, Data: make([]float64, 8)}}})
		}(uint64(i))
	}
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if seen[m.Seq] {
			t.Fatalf("duplicate seq %d — frame corruption under concurrency", m.Seq)
		}
		seen[m.Seq] = true
	}
	wg.Wait()
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dialing a closed port must fail")
	}
}

// TestPipeCloseDeliversAllBufferedMessages: messages already buffered
// when the pipe closes must all be delivered, in order, before Recv
// starts returning ErrClosed.
func TestPipeCloseDeliversAllBufferedMessages(t *testing.T) {
	a, b := Pipe()
	const n = 10
	for i := uint64(0); i < n; i++ {
		if err := a.Send(&wire.Message{Type: wire.MsgAck, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	for i := uint64(0); i < n; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("message %d dropped after close: %v", i, err)
		}
		if m.Seq != i {
			t.Fatalf("out of order after close: got %d, want %d", m.Seq, i)
		}
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained pipe Recv = %v, want ErrClosed", err)
	}
}
