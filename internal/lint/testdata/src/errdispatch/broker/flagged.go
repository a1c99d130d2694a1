// Package broker reproduces the failure-swallowing shapes errdispatch
// exists to catch: dropped connection errors. (Reply dispatch without a
// MsgError arm is msgexhaustive's fixture.)
package broker

// MsgType mirrors wire.MsgType.
type MsgType uint8

// Message kinds.
const (
	MsgForwardResult MsgType = iota + 1
	MsgBackwardResult
	MsgAck
	MsgError
)

// Msg stands in for wire.Message.
type Msg struct {
	Type MsgType
	Text string
}

// Conn mirrors transport.Conn's blocking surface.
type Conn interface {
	Send(*Msg) error
	Recv() (*Msg, error)
	Close() error
}

// fireAndForget drops the Send error on the floor: the peer never saw
// the message and nobody knows.
func fireAndForget(c Conn, m *Msg) {
	c.Send(m) // want "error from c.Send discarded"
}

// blankSend hides the error behind a blank identifier outside any
// shutdown path.
func blankSend(c Conn, m *Msg) {
	_ = c.Send(m) // want "error from c.Send assigned to _"
}

// blankRecv drops the Recv error, so a severed connection spins.
func blankRecv(c Conn) *Msg {
	m, _ := c.Recv() // want "error from c.Recv assigned to _"
	return m
}
