package broker

// A test that drops a Send error then fails on the reply it does not
// get: test files are out of scope.
func sendAndForgetInTest(c Conn) *Msg {
	_ = c.Send(&Msg{Type: MsgAck})
	m, _ := c.Recv()
	return m
}
