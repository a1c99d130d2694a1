package bench

import (
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// connMeter counts the encoded frame bytes and frames of one master-side
// connection, both directions. It is the harness's transport.Meter; the
// timed runs carry nothing else on the wire path.
type connMeter struct {
	bytes  atomic.Int64
	frames atomic.Int64
}

// ConnSend implements transport.Meter.
func (m *connMeter) ConnSend(n int) { m.bytes.Add(int64(n)); m.frames.Add(1) }

// ConnRecv implements transport.Meter.
func (m *connMeter) ConnRecv(n int) { m.bytes.Add(int64(n)); m.frames.Add(1) }

// Shaped is a bandwidth-shaped link: every frame, in either direction,
// additionally costs EncodedSize/BytesPerSec of wall time, slept on the
// goroutine that moves the frame. The broker exchanges with its workers
// concurrently, so a step's link wait is the cost model's
// max_n bytes_n/B_n, not the sum. It embeds transport.Metered, so byte
// accounting and the Deadliner/Serializer delegation are exactly the
// production wrapper's.
type Shaped struct {
	*transport.Metered
	// BytesPerSec is the emulated link bandwidth B_n.
	BytesPerSec float64
	// sleep is time.Sleep; tests substitute a recorder.
	sleep func(time.Duration)
	// sendWait and recvWait accumulate the wall time actually spent in
	// the injected sleeps (ns), per direction: Send and Recv run on
	// different goroutines, so one shared counter could not attribute a
	// wait to a frame.
	sendWait, recvWait atomic.Int64
}

// Shape wraps conn in a link of the given bandwidth, metered by m.
func Shape(conn transport.Conn, m transport.Meter, bytesPerSec float64) *Shaped {
	return &Shaped{Metered: transport.WithMeter(conn, m), BytesPerSec: bytesPerSec, sleep: time.Sleep}
}

// Delay is the serialization time of a frame of the given size on a link
// of the given bandwidth.
func Delay(bytes int, bytesPerSec float64) time.Duration {
	return time.Duration(float64(bytes) / bytesPerSec * float64(time.Second))
}

func (s *Shaped) wait(bytes int, acc *atomic.Int64) {
	t0 := time.Now()
	s.sleep(Delay(bytes, s.BytesPerSec))
	acc.Add(int64(time.Since(t0)))
}

// Send implements transport.Conn: the frame occupies the link, then goes
// out.
func (s *Shaped) Send(msg *wire.Message) error {
	s.wait(wire.EncodedSize(msg), &s.sendWait)
	return s.Metered.Send(msg)
}

// Recv implements transport.Conn: the reply occupies the link after it
// arrives.
func (s *Shaped) Recv() (*wire.Message, error) {
	msg, err := s.Metered.Recv()
	if err == nil {
		s.wait(wire.EncodedSize(msg), &s.recvWait)
	}
	return msg, err
}

// Waited returns the wall time spent in injected sleeps so far, per
// direction. A nil link (raw loopback) has waited for nothing.
func (s *Shaped) Waited() (send, recv time.Duration) {
	if s == nil {
		return 0, 0
	}
	return time.Duration(s.sendWait.Load()), time.Duration(s.recvWait.Load())
}
