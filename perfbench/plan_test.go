package main

import (
	"reflect"
	"testing"
)

// testScale keeps generation fast; the plan logic is the same at any
// scale.
const testScale = 0.0002

func TestPlanDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := buildPlan(w, 7, testScale, 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildPlan(w, 7, testScale, 10)
			if err != nil {
				t.Fatal(err)
			}
			c, err := buildPlan(w, 8, testScale, 10)
			if err != nil {
				t.Fatal(err)
			}
			if a.fingerprint != b.fingerprint {
				t.Errorf("same seed: fingerprints %016x and %016x differ", a.fingerprint, b.fingerprint)
			}
			if !reflect.DeepEqual(a.schedule, b.schedule) || !reflect.DeepEqual(a.reads, b.reads) {
				t.Error("same seed: schedules differ")
			}
			if a.fingerprint == c.fingerprint {
				t.Errorf("seeds 7 and 8 share fingerprint %016x", a.fingerprint)
			}
			if reflect.DeepEqual(a.schedule, c.schedule) {
				t.Error("seeds 7 and 8 share a schedule")
			}
		})
	}
}

func TestScheduleRates(t *testing.T) {
	w, _ := workloadByName("query-spirit")
	p, err := buildPlan(w, 1, testScale, 10)
	if err != nil {
		t.Fatal(err)
	}
	for pi, ph := range w.phases {
		for si, st := range ph.streams {
			slots := p.schedule[pi][si]
			if !ph.open {
				if len(slots) != 0 {
					t.Errorf("closed phase %s has %d slots", ph.name, len(slots))
				}
				continue
			}
			want := st.rate * ph.share * 10
			if got := float64(len(slots)); got < want-1 || got > want+1 {
				t.Errorf("phase %s: %v slots, want about %v", ph.name, got, want)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 50, 2: 25, 3: 30, 4: 5}
	for id, w := range want {
		if int64(self[id]) != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}
