package idle

import (
	"testing"
	"time"
)

var t0 = time.Unix(1000, 0)

func TestTimerDefault(t *testing.T) {
	if due, ok := New(0, t0).Due(); !ok || !due.Equal(t0.Add(DefaultDelay)) {
		t.Fatalf("zero delay: due %v,%v; want the paper's 100ms default", due, ok)
	}
	if due, _ := New(50*time.Millisecond, t0).Due(); !due.Equal(t0.Add(50 * time.Millisecond)) {
		t.Fatalf("explicit delay ignored: due %v", due)
	}
}

func TestTrackerIdleTransitions(t *testing.T) {
	tr := New(10*time.Millisecond, t0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	tr.Start()
	if tr.Idle(at(time.Hour)) {
		t.Fatal("idle while a request is outstanding")
	}
	tr.Start()
	tr.End(at(30 * time.Millisecond))
	if tr.Idle(at(time.Hour)) {
		t.Fatal("idle while one of two requests is outstanding")
	}
	tr.End(at(50 * time.Millisecond))
	if tr.Idle(at(60*time.Millisecond - 1)) {
		t.Fatal("idle 1ns before the delay had passed since the last completion")
	}
	if !tr.Idle(at(60 * time.Millisecond)) {
		t.Fatal("not idle once the delay had passed since the last completion")
	}
}

// The array is idle from its last completion, not its last start: a
// request that began long ago and is still in flight keeps it busy, and
// its completion restarts the delay.
func TestTrackerEligibleAt(t *testing.T) {
	tr := New(100*time.Millisecond, t0)
	tr.Start()
	if _, ok := tr.Due(); ok {
		t.Fatal("due while busy")
	}
	tr.End(t0.Add(25 * time.Millisecond))
	due, ok := tr.Due()
	if !ok || !due.Equal(t0.Add(125*time.Millisecond)) {
		t.Fatalf("due = %v,%v, want 125ms after t0", due, ok)
	}
	// A completion stamped before the last one does not move it back.
	tr.Start()
	tr.End(t0.Add(20 * time.Millisecond))
	if d, _ := tr.Due(); !d.Equal(due) {
		t.Fatalf("an out-of-order stamp moved due to %v", d)
	}
}

func TestTrackerEndWithoutStartPanics(t *testing.T) {
	tr := New(0, t0)
	defer func() {
		if recover() == nil {
			t.Error("End without Start did not panic")
		}
	}()
	tr.End(t0)
}

// Run steps on a wake without waiting for the rule, and returns once stop
// closes.
func TestRunStepsOnWakeUntilStop(t *testing.T) {
	tr := New(time.Hour, time.Now())
	stop, wake, stepped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		tr.Run(time.Now, stop, wake, func() { stepped <- struct{}{} })
		close(done)
	}()
	for i := 0; i < 2; i++ {
		wake <- struct{}{}
		<-stepped
	}
	close(stop)
	<-done
}

// Run steps when the rule comes due, without a wake.
func TestRunStepsAtDue(t *testing.T) {
	tr := New(time.Millisecond, time.Now())
	stop, stepped := make(chan struct{}), make(chan time.Time, 1)
	go tr.Run(time.Now, stop, nil, func() {
		select {
		case stepped <- time.Now():
		default:
		}
	})
	defer close(stop)
	due, _ := tr.Due()
	select {
	case at := <-stepped:
		if at.Before(due) {
			t.Fatalf("stepped %v before the rule came due", due.Sub(at))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never stepped at Due")
	}
}
