// Package wallclock stamps simulator events with the wall clock
// instead of the virtual clock: two runs of one seed order their
// events differently.
package wallclock

import "time"

type event struct {
	at   int64
	unit int
}

type loop struct {
	now    int64 // virtual time
	events []event
}

func (l *loop) schedule(unit int, delay int64) {
	l.events = append(l.events, event{at: time.Now().UnixNano() + delay, unit: unit})
}
