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

// classifyWithoutErrorArm dispatches recovery replies without a
// MsgError arm: a worker that answers the snapshot request with a
// failure is treated as silence and the failover stalls.
func classifyWithoutErrorArm(m *Msg) int {
	switch m.Type { // want "no MsgError arm and no default"
	case MsgPong:
		return 1
	case MsgSnapshotResult:
		return 2
	}
	return 0
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

// markDeadAndSever is the sanctioned discard: the supervisor is
// abandoning the connection, and the annotation says so.
func markDeadAndSever(c Conn) {
	//lint:ignore errdispatch severing a dead worker's conn; the close error is moot
	_ = c.Close()
}
