package approx

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pieo/internal/clock"
	"pieo/internal/core"
)

func TestMultiPriorityFIFOBandOrder(t *testing.T) {
	m := NewMultiPriorityFIFO(4, 100) // bands: [0,25) [25,50) [50,75) [75,100)
	m.Enqueue(core.Entry{ID: 1, Rank: 80})
	m.Enqueue(core.Entry{ID: 2, Rank: 10})
	m.Enqueue(core.Entry{ID: 3, Rank: 30})
	m.Enqueue(core.Entry{ID: 4, Rank: 20}) // same band as 2, behind it

	want := []uint32{2, 4, 3, 1}
	for i, w := range want {
		e, ok := m.Dequeue()
		if !ok || e.ID != w {
			t.Fatalf("dequeue #%d = %v,%v, want id %d", i, e, ok, w)
		}
	}
	if _, ok := m.Dequeue(); ok {
		t.Fatal("dequeue from empty succeeded")
	}
}

func TestMultiPriorityFIFOLosesOrderWithinBand(t *testing.T) {
	// Rank 24 enqueued after rank 1 still dequeues second within the
	// band — but rank 24 BEFORE rank 1 dequeues first: order inside a
	// band is arrival order, not rank order. This is the approximation.
	m := NewMultiPriorityFIFO(4, 100)
	m.Enqueue(core.Entry{ID: 1, Rank: 24})
	m.Enqueue(core.Entry{ID: 2, Rank: 1})
	e, _ := m.Dequeue()
	if e.ID != 1 {
		t.Fatalf("first = %v; the band FIFO should return the earlier arrival (rank 24)", e)
	}
}

func TestMultiPriorityFIFOClampsTopBand(t *testing.T) {
	m := NewMultiPriorityFIFO(4, 100)
	m.Enqueue(core.Entry{ID: 1, Rank: 99999}) // beyond rankSpace: clamp
	if e, ok := m.Dequeue(); !ok || e.ID != 1 {
		t.Fatalf("clamped enqueue lost: %v %v", e, ok)
	}
}

func TestCalendarQueueSweep(t *testing.T) {
	c := NewCalendarQueue(8, 10) // days of width 10, year = 80
	c.Enqueue(core.Entry{ID: 1, Rank: 35})
	c.Enqueue(core.Entry{ID: 2, Rank: 5})
	c.Enqueue(core.Entry{ID: 3, Rank: 71})
	want := []uint32{2, 1, 3}
	for i, w := range want {
		e, ok := c.Dequeue()
		if !ok || e.ID != w {
			t.Fatalf("dequeue #%d = %v, want %d", i, e, w)
		}
	}
}

func TestCalendarQueueYearCollision(t *testing.T) {
	// Ranks 5 and 85 collide (year = 80): the calendar cannot tell them
	// apart, and FIFO within the bucket wins.
	c := NewCalendarQueue(8, 10)
	c.Enqueue(core.Entry{ID: 1, Rank: 85})
	c.Enqueue(core.Entry{ID: 2, Rank: 5})
	e, _ := c.Dequeue()
	if e.ID != 1 {
		t.Fatalf("first = %v; year collision should surface the earlier arrival", e)
	}
}

func TestCalendarQueueDayAdvances(t *testing.T) {
	c := NewCalendarQueue(4, 10)
	c.Enqueue(core.Entry{ID: 1, Rank: 0})
	c.Dequeue()
	// Day is now 0; an element on day 3 must still be found.
	c.Enqueue(core.Entry{ID: 2, Rank: 35})
	if e, ok := c.Dequeue(); !ok || e.ID != 2 {
		t.Fatalf("sweep missed day 3: %v %v", e, ok)
	}
}

func TestTimingWheelReleasesBySlot(t *testing.T) {
	w := NewTimingWheel(16, 100)
	w.Enqueue(core.Entry{ID: 1, SendTime: 250}) // slot 2
	w.Enqueue(core.Entry{ID: 2, SendTime: 120}) // slot 1
	if _, ok := w.Dequeue(99); ok {
		t.Fatal("released before any slot boundary")
	}
	e, ok := w.Dequeue(200) // cursor reaches slot 2?? no: 200/100=2 -> drains slots 1,2
	if !ok || e.ID != 2 {
		t.Fatalf("Dequeue(200) = %v,%v, want id 2", e, ok)
	}
	e, ok = w.Dequeue(300)
	if !ok || e.ID != 1 {
		t.Fatalf("Dequeue(300) = %v,%v, want id 1", e, ok)
	}
}

func TestTimingWheelGranularityError(t *testing.T) {
	// send_time 299 releases when the wheel passes slot 2 (t=200..299
	// boundary at 200): the wheel may release up to one slot EARLY for
	// times inside a slot — the granularity error the experiment
	// measures.
	w := NewTimingWheel(16, 100)
	w.Enqueue(core.Entry{ID: 1, SendTime: 299})
	if _, ok := w.Dequeue(199); ok {
		t.Fatal("released two slots early")
	}
	e, ok := w.Dequeue(200)
	if !ok || e.ID != 1 {
		t.Fatalf("Dequeue(200) = %v,%v; slot-granular release expected", e, ok)
	}
}

func TestTimingWheelAlreadyEligible(t *testing.T) {
	w := NewTimingWheel(8, 100)
	w.Dequeue(1000) // advance the cursor
	w.Enqueue(core.Entry{ID: 1, SendTime: 50})
	if e, ok := w.Dequeue(1000); !ok || e.ID != 1 {
		t.Fatalf("already-eligible element not in ready FIFO: %v %v", e, ok)
	}
}

func TestConstructorsValidate(t *testing.T) {
	for name, fn := range map[string]func(){
		"fifo":     func() { NewMultiPriorityFIFO(0, 10) },
		"calendar": func() { NewCalendarQueue(4, 0) },
		"wheel":    func() { NewTimingWheel(-1, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: none of the structures lose or invent elements.
func TestConservationProperty(t *testing.T) {
	f := func(ranks []uint16) bool {
		m := NewMultiPriorityFIFO(8, 1<<16)
		c := NewCalendarQueue(16, 256)
		for i, r := range ranks {
			e := core.Entry{ID: uint32(i), Rank: uint64(r)}
			m.Enqueue(e)
			c.Enqueue(e)
		}
		for range ranks {
			if _, ok := m.Dequeue(); !ok {
				return false
			}
			if _, ok := c.Dequeue(); !ok {
				return false
			}
		}
		_, mOK := m.Dequeue()
		_, cOK := c.Dequeue()
		return !mOK && !cOK && m.Len() == 0 && c.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the timing wheel never releases an element more than one
// slot before its send time, and always releases by send_time + slot.
func TestTimingWheelBoundsProperty(t *testing.T) {
	f := func(sends []uint16) bool {
		const slot = 100
		w := NewTimingWheel(1024, slot)
		for i, s := range sends {
			w.Enqueue(core.Entry{ID: uint32(i), SendTime: clock.Time(s)})
		}
		released := 0
		for now := clock.Time(0); now <= 1<<16+slot; now += slot / 4 {
			for {
				e, ok := w.Dequeue(now)
				if !ok {
					break
				}
				released++
				if uint64(e.SendTime) >= uint64(now)+slot {
					return false // released more than a slot early
				}
			}
		}
		return released == len(sends)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderErrorShrinksWithBands(t *testing.T) {
	// More bands -> better rank-order approximation (monotone trend on a
	// fixed workload).
	rng := rand.New(rand.NewSource(7))
	entries := make([]core.Entry, 512)
	for i := range entries {
		entries[i] = core.Entry{ID: uint32(i), Rank: uint64(rng.Intn(1 << 16))}
	}
	inversions := func(k int) int {
		m := NewMultiPriorityFIFO(k, 1<<16)
		for _, e := range entries {
			m.Enqueue(e)
		}
		inv := 0
		var prev uint64
		first := true
		for {
			e, ok := m.Dequeue()
			if !ok {
				break
			}
			if !first && e.Rank < prev {
				inv++
			}
			prev = e.Rank
			first = false
		}
		return inv
	}
	i4, i64, i1024 := inversions(4), inversions(64), inversions(1024)
	if !(i4 > i64 && i64 > i1024) {
		t.Fatalf("inversions not shrinking with bands: %d, %d, %d", i4, i64, i1024)
	}
}
