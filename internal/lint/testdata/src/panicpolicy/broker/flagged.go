// Package broker reproduces the failure-domain violations panicpolicy
// exists to catch: panics in runtime packages that must return errors.
package broker

import "fmt"

// Msg stands in for wire.Message.
type Msg struct{ Kind uint8 }

// decode panics on malformed input arriving from a peer — this takes
// the worker process down instead of surfacing a MsgError.
func decode(m *Msg) int {
	if m.Kind > 14 {
		panic(fmt.Sprintf("unknown message kind %d", m.Kind)) // want "panic in runtime package"
	}
	return int(m.Kind)
}

// retiredSpelling pins that the pre-PR-7 directive form is no longer
// parsed: the comment below suppresses nothing, so the finding lands.
func retiredSpelling(workers int) {
	if workers <= 0 {
		//velavet:allow panicpolicy -- retired spelling, deliberately ignored
		panic("broker: worker count must be positive") // want "panic in runtime package"
	}
}
