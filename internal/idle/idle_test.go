package idle

import (
	"testing"
	"time"
)

func TestTimerDefault(t *testing.T) {
	if NewTimer(0).Delay() != DefaultDelay {
		t.Fatal("zero delay should select the paper's 100ms default")
	}
	if NewTimer(50*time.Millisecond).Delay() != 50*time.Millisecond {
		t.Fatal("explicit delay ignored")
	}
	d := NewTimer(0)
	d.Observe(true) // must be a no-op
	if d.Delay() != DefaultDelay {
		t.Fatal("timer detector adapted")
	}
}

func TestAdaptiveBackoff(t *testing.T) {
	a := NewAdaptive(10*time.Millisecond, 100*time.Millisecond, time.Second)
	a.Observe(true)
	if a.Delay() != 200*time.Millisecond {
		t.Fatalf("after interrupt delay = %v, want 200ms", a.Delay())
	}
	a.Observe(false)
	a.Observe(false)
	if a.Delay() != 50*time.Millisecond {
		t.Fatalf("after two successes delay = %v, want 50ms", a.Delay())
	}
}

func TestAdaptiveBounds(t *testing.T) {
	a := NewAdaptive(10*time.Millisecond, 100*time.Millisecond, time.Second)
	for i := 0; i < 20; i++ {
		a.Observe(true)
	}
	if a.Delay() != time.Second {
		t.Fatalf("delay %v exceeded max", a.Delay())
	}
	for i := 0; i < 20; i++ {
		a.Observe(false)
	}
	if a.Delay() != 10*time.Millisecond {
		t.Fatalf("delay %v below min", a.Delay())
	}
}

func TestAdaptiveInvalidBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid bounds did not panic")
		}
	}()
	NewAdaptive(100*time.Millisecond, 10*time.Millisecond, time.Second)
}

func TestTrackerIdleTransitions(t *testing.T) {
	var tr Tracker
	tr.Start(10 * time.Millisecond)
	if _, ok := tr.Idle(20 * time.Millisecond); ok {
		t.Fatal("idle while a request is outstanding")
	}
	tr.Start(15 * time.Millisecond)
	tr.End(30 * time.Millisecond)
	if _, ok := tr.Idle(40 * time.Millisecond); ok {
		t.Fatal("idle while one of two requests is outstanding")
	}
	tr.End(50 * time.Millisecond)
	d, ok := tr.Idle(80 * time.Millisecond)
	if !ok || d != 30*time.Millisecond {
		t.Fatalf("idle = %v,%v, want 30ms,true", d, ok)
	}
}

func TestTrackerEligibleAt(t *testing.T) {
	var tr Tracker
	det := NewTimer(100 * time.Millisecond)
	tr.Start(0)
	if _, ok := tr.EligibleAt(det); ok {
		t.Fatal("eligible while busy")
	}
	tr.End(25 * time.Millisecond)
	at, ok := tr.EligibleAt(det)
	if !ok || at != 125*time.Millisecond {
		t.Fatalf("eligible at %v,%v, want 125ms,true", at, ok)
	}
}

func TestTrackerEndWithoutStartPanics(t *testing.T) {
	var tr Tracker
	defer func() {
		if recover() == nil {
			t.Error("End without Start did not panic")
		}
	}()
	tr.End(0)
}

func TestPredictorWarmupUsesBase(t *testing.T) {
	p := NewPredictor(100 * time.Millisecond)
	if p.Delay() != 100*time.Millisecond {
		t.Fatalf("cold predictor delay = %v, want base", p.Delay())
	}
	// Fewer than 4 samples: still base.
	p.RecordIdlePeriod(5 * time.Millisecond)
	p.RecordIdlePeriod(5 * time.Millisecond)
	if p.Delay() != 100*time.Millisecond {
		t.Fatalf("warming predictor delay = %v, want base", p.Delay())
	}
}

func TestPredictorRaisesThresholdForShortIdles(t *testing.T) {
	p := NewPredictor(100 * time.Millisecond)
	for i := 0; i < 10; i++ {
		p.RecordIdlePeriod(150 * time.Millisecond) // short: below MinUseful (300ms)
	}
	d := p.Delay()
	if d <= 100*time.Millisecond {
		t.Fatalf("short-idle workload delay = %v, want above base", d)
	}
	if d > p.Max {
		t.Fatalf("delay %v exceeds max %v", d, p.Max)
	}
}

func TestPredictorKeepsBaseForLongIdles(t *testing.T) {
	p := NewPredictor(100 * time.Millisecond)
	for i := 0; i < 10; i++ {
		p.RecordIdlePeriod(2 * time.Second)
	}
	if p.Delay() != 100*time.Millisecond {
		t.Fatalf("long-idle workload delay = %v, want base", p.Delay())
	}
	if p.ewma != 2*time.Second {
		t.Fatalf("predicted = %v, want 2s", p.ewma)
	}
}

func TestPredictorObserveInterruptedShrinksEstimate(t *testing.T) {
	p := NewPredictor(100 * time.Millisecond)
	for i := 0; i < 6; i++ {
		p.RecordIdlePeriod(time.Second)
	}
	before := p.ewma
	p.Observe(true)
	if p.ewma >= before {
		t.Fatalf("interruption did not shrink estimate: %v -> %v", before, p.ewma)
	}
	p.Observe(false) // no-op
	if p.Name() != "predictor" {
		t.Fatal("name wrong")
	}
}

func TestPredictorEWMAConverges(t *testing.T) {
	p := NewPredictor(100 * time.Millisecond)
	p.RecordIdlePeriod(time.Second)
	for i := 0; i < 40; i++ {
		p.RecordIdlePeriod(100 * time.Millisecond)
	}
	got := p.ewma
	if got > 120*time.Millisecond || got < 90*time.Millisecond {
		t.Fatalf("EWMA = %v, want ~100ms", got)
	}
}
