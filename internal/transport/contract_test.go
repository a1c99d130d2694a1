package transport

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/wire"
)

// contractMessage is a dispatch-shaped frame: an fp64 id row, then a
// batch in enc whose values none of the lossy encodings reproduce
// exactly.
func contractMessage(enc wire.Encoding) *wire.Message {
	return &wire.Message{Type: wire.MsgForwardMulti, Layer: 2, Expert: wire.ExpertCoalesced, Seq: 41, Text: "contract",
		Tensors: []wire.Matrix{
			{Rows: 1, Cols: 2, Data: []float64{3, 5}},
			{Rows: 2, Cols: 3, Enc: enc, Data: []float64{math.Pi, -math.E, 1e-3, 0.1, -7.25e4, math.Sqrt2}},
		}}
}

// cloneMessage deep-copies m's header and tensor data.
func cloneMessage(m *wire.Message) *wire.Message {
	c := *m
	c.Tensors = make([]wire.Matrix, len(m.Tensors))
	for i, t := range m.Tensors {
		t.Data = append([]float64(nil), t.Data...)
		c.Tensors[i] = t
	}
	return &c
}

// sameMessage reports where a and b first differ, bit for bit, or "".
func sameMessage(a, b *wire.Message) string {
	if a.Type != b.Type || a.Layer != b.Layer || a.Expert != b.Expert || a.Seq != b.Seq || a.Text != b.Text {
		return "header"
	}
	if len(a.Tensors) != len(b.Tensors) {
		return "tensor count"
	}
	for i := range a.Tensors {
		x, y := a.Tensors[i], b.Tensors[i]
		if x.Rows != y.Rows || x.Cols != y.Cols || x.Enc != y.Enc || len(x.Data) != len(y.Data) {
			return "tensor geometry"
		}
		for j := range x.Data {
			if math.Float64bits(x.Data[j]) != math.Float64bits(y.Data[j]) {
				return fmt.Sprintf("tensor %d value %d: %v against %v", i, j, x.Data[j], y.Data[j])
			}
		}
	}
	return ""
}

// TestConnContract pins what every Conn promises, over the in-process
// pipe and loopback TCP and in every wire encoding: Send leaves the
// caller's message as it was; the peer receives a message of its own,
// sharing no memory with the sent one, equal bit for bit to an
// AppendFrame → DecodePooled round trip of it; a message the codec
// cannot frame fails Send and reaches nobody; and a wrapper that embeds
// a Conn takes deadlines by promotion.
func TestConnContract(t *testing.T) {
	pipe := func(t *testing.T) (Conn, Conn) {
		a, b := Pipe()
		t.Cleanup(func() { _ = a.Close() })
		return a, b
	}
	for _, tr := range []struct {
		name string
		pair func(*testing.T) (Conn, Conn)
	}{{"pipe", pipe}, {"tcp", tcpPair}} {
		for _, enc := range []wire.Encoding{wire.EncFP64, wire.EncFP16, wire.EncInt8} {
			t.Run(tr.name+"/"+enc.String(), func(t *testing.T) {
				a, b := tr.pair(t)
				sent := contractMessage(enc)
				orig := cloneMessage(sent)
				if err := a.Send(sent); err != nil {
					t.Fatal(err)
				}
				if d := sameMessage(sent, orig); d != "" {
					t.Errorf("Send rewrote the caller's message: %s", d)
				}
				got, err := b.Recv()
				if err != nil {
					t.Fatal(err)
				}
				frame, err := wire.AppendFrame(nil, orig)
				if err != nil {
					t.Fatal(err)
				}
				want, err := wire.DecodePooled(frame[4:])
				if err != nil {
					t.Fatal(err)
				}
				if d := sameMessage(got, want); d != "" {
					t.Errorf("received message differs from a codec round trip: %s", d)
				}
				afterSend := cloneMessage(sent)
				for i := range got.Tensors {
					for j := range got.Tensors[i].Data {
						got.Tensors[i].Data[j] = -1
					}
				}
				if got == sent || sameMessage(sent, afterSend) != "" {
					t.Error("received message shares memory with the sent one")
				}

				bad := &wire.Message{Type: wire.MsgForwardMulti, Seq: 42,
					Tensors: []wire.Matrix{{Rows: 2, Cols: 2, Enc: enc, Data: []float64{1, 2, 3}}}}
				if err := a.Send(bad); err == nil {
					t.Error("a 2x2 matrix with 3 values was sent")
				}
				if err := a.Send(&wire.Message{Type: wire.MsgPing, Seq: 43}); err != nil {
					t.Fatal(err)
				}
				if m, err := b.Recv(); err != nil || m.Seq != 43 {
					t.Errorf("after the refused send the peer received %v, %v; want the ping", m, err)
				}

				w := struct{ Conn }{b}
				if err := w.SetRecvDeadline(time.Now().Add(-time.Second)); err != nil {
					t.Errorf("a wrapper embedding Conn refused a receive deadline: %v", err)
				}
				if _, err := w.Recv(); !errors.Is(err, ErrTimeout) {
					t.Errorf("Recv past the wrapper's deadline = %v, want ErrTimeout", err)
				}
			})
		}
	}
}
