package iosched

import (
	"sort"
	"testing"
	"testing/quick"
)

// queue is the discipline TestCLOOKReducesSeekDistanceVsFCFS compares:
// CLOOK against its first-come-first-served reference.
type queue interface {
	Push(Request)
	Pop() Request
	Len() int
}

// fcfsQueue is the first-come-first-served reference: arrival order.
type fcfsQueue struct{ q []Request }

func (f *fcfsQueue) Push(r Request) { f.q = append(f.q, r) }
func (f *fcfsQueue) Len() int       { return len(f.q) }

func (f *fcfsQueue) Pop() Request {
	if len(f.q) == 0 {
		panic("iosched: Pop from empty FCFS queue")
	}
	r := f.q[0]
	f.q = f.q[1:]
	return r
}

func TestFCFSOrder(t *testing.T) {
	q := &fcfsQueue{}
	for i := 0; i < 5; i++ {
		q.Push(Request{Pos: int64(5 - i), Payload: i})
	}
	for i := 0; i < 5; i++ {
		r := q.Pop()
		if r.Payload.(int) != i {
			t.Fatalf("FCFS pop %d returned payload %v", i, r.Payload)
		}
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty")
	}
}

func TestFCFSPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty FCFS did not panic")
		}
	}()
	(&fcfsQueue{}).Pop()
}

func TestCLOOKSweepsAscending(t *testing.T) {
	q := NewCLOOK()
	positions := []int64{50, 10, 40, 20, 30}
	for _, p := range positions {
		q.Push(Request{Pos: p})
	}
	var got []int64
	for q.Len() > 0 {
		got = append(got, q.Pop().Pos)
	}
	want := []int64{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep order %v, want %v", got, want)
		}
	}
}

func TestCLOOKWrapsToLowest(t *testing.T) {
	q := NewCLOOK()
	q.Push(Request{Pos: 100})
	if q.Pop().Pos != 100 {
		t.Fatal("first pop")
	}
	// Head is now 100; lower-positioned arrivals must wait for wrap but
	// are served in ascending order after wrapping.
	q.Push(Request{Pos: 10})
	q.Push(Request{Pos: 50})
	q.Push(Request{Pos: 150})
	var got []int64
	for q.Len() > 0 {
		got = append(got, q.Pop().Pos)
	}
	want := []int64{150, 10, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order after wrap = %v, want %v", got, want)
		}
	}
}

func TestCLOOKEqualPositionsFIFO(t *testing.T) {
	q := NewCLOOK()
	for i := 0; i < 4; i++ {
		q.Push(Request{Pos: 7, Payload: i})
	}
	for i := 0; i < 4; i++ {
		if got := q.Pop().Payload.(int); got != i {
			t.Fatalf("equal-pos pop %d returned %d", i, got)
		}
	}
}

func TestCLOOKStaticBatchSortsAscendingFromHead(t *testing.T) {
	prop := func(raw []int64) bool {
		q := NewCLOOK()
		for _, p := range raw {
			if p < 0 {
				p = -p
			}
			q.Push(Request{Pos: p})
		}
		var got []int64
		for q.Len() > 0 {
			got = append(got, q.Pop().Pos)
		}
		// From head 0, a static batch must come out fully sorted.
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCLOOKConservation(t *testing.T) {
	prop := func(raw []int64) bool {
		q := NewCLOOK()
		pushed := map[int64]int{}
		for _, p := range raw {
			q.Push(Request{Pos: p})
			pushed[p]++
		}
		popped := map[int64]int{}
		for q.Len() > 0 {
			popped[q.Pop().Pos]++
		}
		if len(pushed) != len(popped) {
			return false
		}
		for k, v := range pushed {
			if popped[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLimiterAdmitsUpToMax(t *testing.T) {
	l := NewLimiter(NewCLOOK(), 2)
	_, ok := l.Submit(Request{Pos: 1})
	if !ok {
		t.Fatal("first submit should admit")
	}
	_, ok = l.Submit(Request{Pos: 2})
	if !ok {
		t.Fatal("second submit should admit")
	}
	_, ok = l.Submit(Request{Pos: 3})
	if ok {
		t.Fatal("third submit should queue")
	}
	if l.outstanding != 2 || l.sched.Len() != 1 {
		t.Fatalf("outstanding=%d queued=%d", l.outstanding, l.sched.Len())
	}
	next, ok := l.Done()
	if !ok || next.Pos != 3 {
		t.Fatalf("Done should release queued request, got %v %v", next, ok)
	}
	if _, ok := l.Done(); ok {
		t.Fatal("Done with empty queue should not return a request")
	}
	l.Done()
	if l.outstanding != 0 {
		t.Fatalf("outstanding=%d, want 0", l.outstanding)
	}
}

func TestLimiterDoneUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Done without outstanding did not panic")
		}
	}()
	NewLimiter(NewCLOOK(), 1).Done()
}

func TestLimiterUsesSchedulerDiscipline(t *testing.T) {
	l := NewLimiter(NewCLOOK(), 1)
	l.Submit(Request{Pos: 0})
	l.Submit(Request{Pos: 30})
	l.Submit(Request{Pos: 10})
	l.Submit(Request{Pos: 20})
	var got []int64
	for {
		r, ok := l.Done()
		if !ok {
			break
		}
		got = append(got, r.Pos)
	}
	want := []int64{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("release order %v, want %v", got, want)
		}
	}
}

func TestCLOOKReducesSeekDistanceVsFCFS(t *testing.T) {
	// The point of the elevator: total head travel over a static batch
	// must be well below FCFS arrival order.
	rng := uint64(2024)
	next := func() int64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int64(rng % 1_000_000)
	}
	positions := make([]int64, 200)
	for i := range positions {
		positions[i] = next()
	}
	travel := func(q queue) int64 {
		for _, p := range positions {
			q.Push(Request{Pos: p})
		}
		var total, head int64
		for q.Len() > 0 {
			p := q.Pop().Pos
			d := p - head
			if d < 0 {
				d = -d
			}
			total += d
			head = p
		}
		return total
	}
	fcfs := travel(&fcfsQueue{})
	clook := travel(NewCLOOK())
	if clook*5 > fcfs {
		t.Fatalf("CLOOK travel %d not well below FCFS %d", clook, fcfs)
	}
}
