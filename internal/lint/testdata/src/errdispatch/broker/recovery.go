package broker

// Recovery-path shapes: the supervision loop is where a swallowed
// transport error is most expensive — a dropped heartbeat failure makes
// a dead worker look healthy and postpones failover until a training
// round wedges on it.

// Reply kinds of the health protocol.
const (
	MsgPong MsgType = iota + 10
	MsgSnapshotResult
)

// heartbeatFireAndForget drops the ping's Send error: a severed
// connection is exactly the signal the heartbeat exists to detect, and
// this shape throws it away.
func heartbeatFireAndForget(c Conn) {
	c.Send(&Msg{Type: MsgAck}) // want "error from c.Send discarded"
}

// probeDropsRecv polls the worker but blanks the Recv error, so a
// missed heartbeat is indistinguishable from a healthy pong.
func probeDropsRecv(c Conn) bool {
	m, _ := c.Recv() // want "error from c.Recv assigned to _"
	return m != nil && m.Type == MsgPong
}

// probeChecked is the clean shape: both legs propagate, and the
// dispatch has a failure arm.
func probeChecked(c Conn) (bool, error) {
	if err := c.Send(&Msg{Type: MsgAck}); err != nil {
		return false, err
	}
	m, err := c.Recv()
	if err != nil {
		return false, err
	}
	switch m.Type {
	case MsgPong:
		return true, nil
	case MsgError:
		return false, errText(m.Text)
	default:
		return false, nil
	}
}

// markDeadAndSever discards a Close error outside any shutdown-named
// function: the supervisor is abandoning the connection, there is no
// failure path to route the error into, and Close is out of scope.
func markDeadAndSever(c Conn) {
	_ = c.Close()
}
