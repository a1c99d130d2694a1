// Package transport provides the reliable, ordered message pipes VELA's
// master and workers communicate over. Two implementations share the
// wire codec: an in-process channel transport (tests, single-process
// deployments, the simulator's functional mode) and a TCP transport for
// genuinely distributed runs.
//
// Failure model: every operation on a severed connection reports an
// error satisfying errors.Is(err, ErrClosed); an operation that exceeds
// its deadline reports one satisfying errors.Is(err, ErrTimeout). A
// timed-out Recv is resumable — the connection stays usable and a later
// Recv picks up exactly where the frame read left off — which is what
// lets the broker's per-request deadlines retry a slow reply without
// poisoning the stream. A timed-out Send is not resumable (the frame may
// be partially written) and the connection should be abandoned.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// Conn is one end of a bidirectional, ordered message pipe.
type Conn interface {
	// Send transmits one message. Safe for use by one goroutine at a
	// time.
	Send(m *wire.Message) error
	// Recv blocks for the next incoming message.
	Recv() (*wire.Message, error)
	// Close releases the connection; pending and future Recv calls fail.
	Close() error
}

// ErrClosed is returned for operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// ErrTimeout is returned when a Send or Recv exceeds its deadline.
var ErrTimeout = errors.New("transport: operation timed out")

// Deadliner is the optional deadline surface of a Conn. Both built-in
// transports (and the Faulty wrapper) implement it; callers reach it
// through SetRecvDeadline/SetSendDeadline so a deadline-less Conn
// degrades to blocking behaviour instead of failing.
type Deadliner interface {
	// SetRecvDeadline bounds subsequent Recv calls; the zero time
	// clears the deadline.
	SetRecvDeadline(t time.Time) error
	// SetSendDeadline bounds subsequent Send calls; the zero time
	// clears the deadline.
	SetSendDeadline(t time.Time) error
}

// Serializer is the optional capability surface of a Conn whose Send
// serializes the message before it returns: the peer observes an
// independent copy, so the caller may immediately reuse or recycle the
// message and its tensors (wire.Release). The chan transport delivers
// messages by pointer and is NOT a Serializer; wrappers delegate to the
// conn they wrap.
type Serializer interface {
	// SendCopies reports whether Send hands the peer a copy.
	SendCopies() bool
}

// Copies reports whether c's Send serializes (copies) messages, i.e.
// whether a sender may release pooled buffers once Send returns. False
// for conns without the capability — the safe default.
func Copies(c Conn) bool {
	s, ok := c.(Serializer)
	return ok && s.SendCopies()
}

// SetRecvDeadline applies a receive deadline if c supports deadlines,
// reporting whether it did.
func SetRecvDeadline(c Conn, t time.Time) bool {
	d, ok := c.(Deadliner)
	if !ok {
		return false
	}
	return d.SetRecvDeadline(t) == nil
}

// SetSendDeadline applies a send deadline if c supports deadlines,
// reporting whether it did.
func SetSendDeadline(c Conn, t time.Time) bool {
	d, ok := c.(Deadliner)
	if !ok {
		return false
	}
	return d.SetSendDeadline(t) == nil
}

// pipeState is the shared close signal of an in-process pipe: closing
// either end severs the pipe, like a socket.
type pipeState struct {
	closed chan struct{}
	once   sync.Once
}

func (s *pipeState) close() { s.once.Do(func() { close(s.closed) }) }

// chanConn is one end of an in-process pipe.
type chanConn struct {
	out   chan<- *wire.Message
	in    <-chan *wire.Message
	state *pipeState

	mu           sync.Mutex
	recvDeadline time.Time
	sendDeadline time.Time
}

// Pipe returns two connected in-process endpoints. Messages sent on one
// are received on the other, in order. The buffer keeps senders from
// blocking on small bursts.
func Pipe() (Conn, Conn) {
	ab := make(chan *wire.Message, 64)
	ba := make(chan *wire.Message, 64)
	state := &pipeState{closed: make(chan struct{})}
	a := &chanConn{out: ab, in: ba, state: state}
	b := &chanConn{out: ba, in: ab, state: state}
	return a, b
}

// SetRecvDeadline implements Deadliner.
func (c *chanConn) SetRecvDeadline(t time.Time) error {
	c.mu.Lock()
	c.recvDeadline = t
	c.mu.Unlock()
	return nil
}

// SetSendDeadline implements Deadliner.
func (c *chanConn) SetSendDeadline(t time.Time) error {
	c.mu.Lock()
	c.sendDeadline = t
	c.mu.Unlock()
	return nil
}

// timeoutChan converts a deadline into a timer channel; a zero deadline
// yields a nil channel (blocks forever in a select). The returned stop
// must be called to release the timer.
func timeoutChan(deadline time.Time) (<-chan time.Time, func(), error) {
	if deadline.IsZero() {
		return nil, func() {}, nil
	}
	d := time.Until(deadline)
	if d <= 0 {
		return nil, func() {}, ErrTimeout
	}
	t := time.NewTimer(d)
	return t.C, func() { t.Stop() }, nil
}

// Send implements Conn. Tensors with a lossy wire encoding are quantized
// in place before delivery: the pipe skips serialization, so without this
// a receiver would observe exact values over chan but quantized values
// over TCP. Quantizing at Send keeps the two transports bit-identical
// from the same input.
func (c *chanConn) Send(m *wire.Message) error {
	select {
	case <-c.state.closed:
		return ErrClosed
	default:
	}
	for i := range m.Tensors {
		m.Tensors[i].Quantize()
	}
	c.mu.Lock()
	deadline := c.sendDeadline
	c.mu.Unlock()
	timeout, stop, err := timeoutChan(deadline)
	if err != nil {
		return err
	}
	defer stop()
	select {
	case c.out <- m:
		return nil
	case <-timeout:
		return ErrTimeout
	case <-c.state.closed:
		return ErrClosed
	}
}

// Recv implements Conn. Messages already buffered when the pipe closes
// are still delivered, in order, before Recv starts reporting ErrClosed —
// a close racing with in-flight sends must not drop them.
func (c *chanConn) Recv() (*wire.Message, error) {
	// Deterministically prefer buffered messages over the close signal
	// (a bare two-case select picks randomly when both are ready).
	select {
	case m := <-c.in:
		return m, nil
	default:
	}
	c.mu.Lock()
	deadline := c.recvDeadline
	c.mu.Unlock()
	timeout, stop, err := timeoutChan(deadline)
	if err != nil {
		return nil, err
	}
	defer stop()
	select {
	case m := <-c.in:
		return m, nil
	case <-timeout:
		return nil, ErrTimeout
	case <-c.state.closed:
		// Drain anything that raced with close until the buffer is empty.
		select {
		case m := <-c.in:
			return m, nil
		default:
			return nil, ErrClosed
		}
	}
}

// Close implements Conn.
func (c *chanConn) Close() error {
	c.state.close()
	return nil
}

// tcpConn frames messages over a net.Conn. Recv keeps partial-frame
// state so a deadline-expired read can be resumed by a later Recv: the
// bytes already consumed from the stream are retained, not lost.
type tcpConn struct {
	conn net.Conn

	sendMu sync.Mutex

	recvMu sync.Mutex
	hdr    [4]byte
	hdrN   int
	body   []byte // nil until the current frame's header is complete; pooled
	bodyN  int
}

// newTCPConn wraps an established net.Conn with the wire framing.
func newTCPConn(c net.Conn) Conn {
	return &tcpConn{conn: c}
}

// Dial connects to a listening peer.
func Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPConn(c), nil
}

// Listener accepts wire-framed connections.
type Listener struct {
	l net.Listener
}

// Listen starts a TCP listener on addr (e.g. "127.0.0.1:0").
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept blocks for the next connection.
func (l *Listener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }

// mapNetErr folds net-level failures onto the transport sentinels so
// errors.Is works uniformly across the chan and TCP transports.
func mapNetErr(err error) error {
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return err
}

// SetRecvDeadline implements Deadliner.
func (t *tcpConn) SetRecvDeadline(dl time.Time) error { return t.conn.SetReadDeadline(dl) }

// SetSendDeadline implements Deadliner.
func (t *tcpConn) SetSendDeadline(dl time.Time) error { return t.conn.SetWriteDeadline(dl) }

// SendCopies implements Serializer: Send serializes the frame before
// returning, so the caller may recycle the message afterwards.
func (t *tcpConn) SendCopies() bool { return true }

// Send implements Conn, the mirror of Recv: the whole frame is encoded
// into one pooled buffer, written with one Write, and recycled.
func (t *tcpConn) Send(m *wire.Message) error {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	buf, err := wire.AppendFrame(wire.GetBuf(wire.EncodedSize(m))[:0], m)
	defer wire.PutBuf(buf)
	if err != nil {
		return err
	}
	if len(buf) > wire.MaxFrameSize {
		return wire.ErrFrameTooLarge
	}
	_, err = t.conn.Write(buf)
	return mapNetErr(err)
}

// Recv implements Conn. A deadline expiry mid-frame leaves the partial
// read buffered on the conn; the next Recv resumes it.
func (t *tcpConn) Recv() (*wire.Message, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	for t.hdrN < 4 {
		n, err := t.conn.Read(t.hdr[t.hdrN:])
		t.hdrN += n
		if err != nil {
			// EOF with a partial header read is a truncated stream, not a
			// clean peer close.
			if errors.Is(err, io.EOF) && t.hdrN > 0 && t.hdrN < 4 {
				err = io.ErrUnexpectedEOF
			}
			return nil, mapNetErr(err)
		}
	}
	if t.body == nil {
		size := binary.LittleEndian.Uint32(t.hdr[:])
		if size > wire.MaxFrameSize {
			t.hdrN = 0
			return nil, wire.ErrFrameTooLarge
		}
		t.body = wire.GetBuf(int(size))
		t.bodyN = 0
	}
	for t.bodyN < len(t.body) {
		n, err := t.conn.Read(t.body[t.bodyN:])
		t.bodyN += n
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, mapNetErr(err)
		}
	}
	body := t.body
	t.hdrN, t.body, t.bodyN = 0, nil, 0
	m, err := wire.DecodePooled(body)
	wire.PutBuf(body)
	return m, err
}

// Close implements Conn.
func (t *tcpConn) Close() error { return t.conn.Close() }
