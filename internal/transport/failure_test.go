package transport

import (
	"errors"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/wire"
)

func ping(seq uint64) *wire.Message { return &wire.Message{Type: wire.MsgPing, Seq: seq} }

// TestChanConnRecvDeadline: an armed deadline turns a blocking Recv into
// ErrTimeout, and clearing it restores blocking delivery.
func TestChanConnRecvDeadline(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	if err := a.SetRecvDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// The connection survives the timeout: clear the deadline, deliver.
	_ = a.SetRecvDeadline(time.Time{})
	if err := b.Send(ping(7)); err != nil {
		t.Fatal(err)
	}
	m, err := a.Recv()
	if err != nil || m.Seq != 7 {
		t.Fatalf("recv after timeout = %v, %v", m, err)
	}
}

// TestChanConnExpiredDeadlineBuffered: even with an already-expired
// deadline, a message that is already buffered is preferred over the
// timeout so no delivered data is lost.
func TestChanConnExpiredDeadlineBuffered(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	if err := b.Send(ping(1)); err != nil {
		t.Fatal(err)
	}
	_ = a.SetRecvDeadline(time.Now().Add(-time.Second))
	if m, err := a.Recv(); err != nil || m.Seq != 1 {
		t.Fatalf("buffered recv = %v, %v", m, err)
	}
	if _, err := a.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("empty recv = %v, want ErrTimeout", err)
	}
}

// TestChanConnClosedSentinel: all operations on a severed pipe satisfy
// errors.Is(err, ErrClosed) — from either end.
func TestChanConnClosedSentinel(t *testing.T) {
	a, b := Pipe()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ping(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed = %v", err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv on peer-closed = %v", err)
	}
	if err := b.Send(ping(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("peer send on closed = %v", err)
	}
}

// tcpPair builds a connected TCP transport pair over loopback.
func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type accepted struct {
		c   Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	srv := <-ch
	if srv.err != nil {
		t.Fatal(srv.err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = srv.c.Close()
	})
	return client, srv.c
}

// TestTCPConnSentinels: the TCP transport folds its net-level failures
// onto the same sentinels as the chan transport.
func TestTCPConnSentinels(t *testing.T) {
	client, server := tcpPair(t)
	_ = client.SetRecvDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := client.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv deadline = %v, want ErrTimeout", err)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	_ = client.SetRecvDeadline(time.Time{})
	if _, err := client.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after peer close = %v, want ErrClosed", err)
	}
}

// TestTCPRecvResumesAfterTimeout is the load-bearing transport property
// of the retry path: a Recv deadline that expires mid-frame must not
// poison the stream — the partial bytes are retained and a later Recv
// completes the same frame intact.
func TestTCPRecvResumesAfterTimeout(t *testing.T) {
	client, server := tcpPair(t)

	// A payload large enough that the kernel cannot swallow it in one
	// write, sent from a goroutine that stalls the client's reads by
	// simply taking a while on the sending side's scheduling.
	big := &wire.Message{Type: wire.MsgForwardMulti, Seq: 99,
		Tensors: []wire.Matrix{{Rows: 512, Cols: 256, Data: make([]float64, 512*256)}}}
	for i := range big.Tensors[0].Data {
		big.Tensors[0].Data[i] = float64(i % 251)
	}
	go func() {
		_ = server.Send(big)
	}()

	// Hammer short deadlines until the frame completes: every timeout in
	// between must resume, not restart or desync.
	timeouts := 0
	var got *wire.Message
	for {
		_ = client.SetRecvDeadline(time.Now().Add(200 * time.Microsecond))
		m, err := client.Recv()
		if err == nil {
			got = m
			break
		}
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("recv = %v, want only timeouts", err)
		}
		timeouts++
		if timeouts > 100000 {
			t.Fatal("frame never completed")
		}
	}
	if got.Seq != 99 || len(got.Tensors) != 1 {
		t.Fatalf("resumed frame corrupted: %+v", got)
	}
	if !testutil.BitEqualSlices(big.Tensors[0].Data, got.Tensors[0].Data) {
		t.Fatal("resumed frame payload corrupted")
	}

	// And the stream is still correctly framed for the next message.
	_ = client.SetRecvDeadline(time.Time{})
	if err := server.Send(ping(100)); err != nil {
		t.Fatal(err)
	}
	m, err := client.Recv()
	if err != nil || m.Seq != 100 {
		t.Fatalf("next frame after resume = %v, %v", m, err)
	}
}

// TestFaultyDeterminism: the same (seed, plan) drops the same messages.
func TestFaultyDeterminism(t *testing.T) {
	run := func() []uint64 {
		a, b := Pipe()
		f := NewFaulty(a, 42, FaultPlan{DropProb: 0.5})
		var delivered []uint64
		for i := 0; i < 64; i++ {
			if err := f.Send(ping(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		_ = f.Close()
		for {
			m, err := b.Recv()
			if err != nil {
				break
			}
			delivered = append(delivered, m.Seq)
		}
		return delivered
	}
	first, second := run(), run()
	if len(first) == 0 || len(first) == 64 {
		t.Fatalf("drop plan had no effect: %d/64 delivered", len(first))
	}
	if len(first) != len(second) {
		t.Fatalf("non-deterministic: %d vs %d delivered", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("delivery order diverged at %d: %d vs %d", i, first[i], second[i])
		}
	}
}

// TestFaultyDuplicate: DupProb=1 delivers every message twice.
func TestFaultyDuplicate(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	f := NewFaulty(a, 1, FaultPlan{DupProb: 1})
	if err := f.Send(ping(5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m, err := b.Recv()
		if err != nil || m.Seq != 5 {
			t.Fatalf("copy %d: %v, %v", i, m, err)
		}
	}
}

// TestFaultyArmClose: the armed close fires on the exact configured send
// and reports ErrClosed to the sender.
func TestFaultyArmClose(t *testing.T) {
	a, b := Pipe()
	f := NewFaulty(a, 1, FaultPlan{})
	f.ArmClose(2) // sends 1 and 2 pass; send 3 kills the conn
	for i := 0; i < 2; i++ {
		if err := f.Send(ping(uint64(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := f.Send(ping(9)); !errors.Is(err, ErrClosed) {
		t.Fatalf("armed send = %v, want ErrClosed", err)
	}
	// Both buffered messages drain, then the peer sees the close.
	for i := 0; i < 2; i++ {
		if _, err := b.Recv(); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain recv = %v, want ErrClosed", err)
	}
}

// TestFaultyPartitionRecv: a receive-side partition discards delivered
// messages, so Recv surfaces only the deadline.
func TestFaultyPartitionRecv(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	f := NewFaulty(a, 1, FaultPlan{PartitionRecv: true})
	if err := b.Send(ping(1)); err != nil {
		t.Fatal(err)
	}
	_ = f.SetRecvDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := f.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("partitioned recv = %v, want ErrTimeout", err)
	}
}

// TestFaultyPartitionSend: a send-side partition swallows sends without
// an error — the classic gray failure.
func TestFaultyPartitionSend(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	f := NewFaulty(a, 1, FaultPlan{PartitionSend: true})
	if err := f.Send(ping(1)); err != nil {
		t.Fatalf("partitioned send must look successful, got %v", err)
	}
	_ = b.SetRecvDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := b.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("peer recv = %v, want ErrTimeout (nothing delivered)", err)
	}
}
