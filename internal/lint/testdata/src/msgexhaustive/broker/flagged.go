package broker

import "fix/wire"

// dispatchNoDefault misses two declared kinds and has nowhere for an
// unknown message to go.
func dispatchNoDefault(m *wire.Message) int {
	switch m.Type { // want "misses 4 declared message kind.s. .MsgError, MsgShutdown, MsgTraceFetch, MsgTraceFetchResult"
	case wire.MsgPing:
		return 1
	case wire.MsgPong:
		return 2
	}
	return 0
}

// dispatchSilentDefault has a default, but it swallows the unhandled
// kinds without producing any error.
func dispatchSilentDefault(m *wire.Message) int {
	switch m.Type {
	case wire.MsgPing:
		return 1
	default: // want "silently discards 5 unhandled message kind"
		return 0
	}
}

// dispatchWithoutErrorArm only matches success replies: a worker-side
// MsgError falls through silently and the exchange hangs or
// misattributes the next reply. (With classifyWithoutErrorArm, the two
// shapes errdispatch's retired switch leg covered.)
func dispatchWithoutErrorArm(m *wire.Message) int {
	got := 0
	switch m.Type { // want "misses 3 declared message kind.s. .MsgError, MsgShutdown, MsgTraceFetch. and has no default"
	case wire.MsgTraceFetchResult:
		got = 1
	case wire.MsgPing, wire.MsgPong:
		got = 2
	}
	return got
}

// classifyWithoutErrorArm dispatches recovery replies without a
// MsgError arm: a worker that answers the snapshot request with a
// failure is treated as silence and the failover stalls.
func classifyWithoutErrorArm(m *wire.Message) int {
	switch m.Type { // want "misses 4 declared message kind.s. .MsgError, MsgPing, MsgShutdown, MsgTraceFetch. and has no default"
	case wire.MsgPong:
		return 1
	case wire.MsgTraceFetchResult:
		return 2
	}
	return 0
}
