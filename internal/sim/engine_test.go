package sim

import (
	"testing"
	"time"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*time.Millisecond, func() { got = append(got, 3) })
	e.At(10*time.Millisecond, func() { got = append(got, 1) })
	e.At(20*time.Millisecond, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30*time.Millisecond {
		t.Fatalf("end time = %v, want 30ms", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestEngineAfterAdvancesClock(t *testing.T) {
	e := NewEngine()
	var at1, at2 time.Duration
	e.After(5*time.Millisecond, func() {
		at1 = e.Now()
		e.After(7*time.Millisecond, func() { at2 = e.Now() })
	})
	e.Run()
	if at1 != 5*time.Millisecond || at2 != 12*time.Millisecond {
		t.Fatalf("at1=%v at2=%v, want 5ms and 12ms", at1, at2)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5*time.Millisecond, func() {})
	})
	e.Run()
}

func TestTimerStopCancelsEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
	e.At(0, func() {})
	if !e.Step() {
		t.Fatal("Step with a pending event returned false")
	}
	if e.Step() {
		t.Fatal("Step after draining returned true")
	}
}

func TestEngineStepsCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(time.Duration(i)*time.Millisecond, func() {})
	}
	e.Run()
	if e.steps != 5 {
		t.Fatalf("steps = %d, want 5", e.steps)
	}
}
