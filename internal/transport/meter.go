package transport

import "repro/internal/wire"

// Meter receives per-frame byte accounting from a Metered connection.
// obs.Handle satisfies it structurally; transport stays free of an obs
// dependency.
type Meter interface {
	// ConnSend is called after a frame of the given encoded size was
	// successfully sent.
	ConnSend(bytes int)
	// ConnRecv is called after a frame of the given encoded size was
	// successfully received.
	ConnRecv(bytes int)
}

// Metered wraps a Conn and reports every successful Send/Recv frame size
// to M. A nil M makes the wrapper transparent, so deployments can install
// metering unconditionally.
type Metered struct {
	Conn
	M Meter
}

// WithMeter wraps conn so every frame is accounted to m.
func WithMeter(conn Conn, m Meter) *Metered { return &Metered{Conn: conn, M: m} }

// Send implements Conn.
func (c *Metered) Send(msg *wire.Message) error {
	err := c.Conn.Send(msg)
	if err == nil && c.M != nil {
		c.M.ConnSend(wire.EncodedSize(msg))
	}
	return err
}

// Recv implements Conn.
func (c *Metered) Recv() (*wire.Message, error) {
	msg, err := c.Conn.Recv()
	if err == nil && c.M != nil {
		c.M.ConnRecv(wire.EncodedSize(msg))
	}
	return msg, err
}

// SendCopies implements Serializer by delegation.
func (c *Metered) SendCopies() bool { return Copies(c.Conn) }
