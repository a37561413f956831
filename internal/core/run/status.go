package run

import "fmt"

// TransitionError is the typed error returned when a run is asked to
// enter a state its current state does not allow (e.g. Done -> Running).
type TransitionError struct {
	From, To Status
}

// Error implements error.
func (e *TransitionError) Error() string {
	return fmt.Sprintf("run: illegal status transition %s -> %s", e.From, e.To)
}

// validNext enumerates the run lifecycle. Failed and TimedOut runs may
// re-enter Running (a retry); Running may re-enter Running (the broker
// revoked a wedged attempt and reassigned the run elsewhere); Done is
// terminal — a completed run can never be marked running again.
var validNext = map[Status][]Status{
	Queued:   {Running},
	Running:  {Running, Done, Failed, TimedOut},
	Failed:   {Running},
	TimedOut: {Running},
	Done:     nil,
}

// CanTransition reports whether s may move to the target state,
// returning a typed *TransitionError if not.
func (s Status) CanTransition(to Status) error {
	for _, n := range validNext[s] {
		if n == to {
			return nil
		}
	}
	return &TransitionError{From: s, To: to}
}
