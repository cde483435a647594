package main

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

var readKindNames = [readKinds]string{"resubmit", "report", "series", "list"}

func TestReadScheduleIsSeeded(t *testing.T) {
	const n, targets = 1 << 16, 256
	a, b := readSchedule(1, n, targets), readSchedule(1, n, targets)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, readSchedule(2, n, targets)) {
		t.Fatal("two seeds gave the same schedule")
	}
	var counts [readKinds]int
	for _, op := range a {
		counts[op.kind]++
		if op.target < 0 || op.target >= targets {
			t.Fatalf("target %d outside the %d preloaded runs", op.target, targets)
		}
	}
	prev := 0.0
	for k, cum := range readShares {
		want := cum - prev
		prev = cum
		if got := float64(counts[k]) / n; math.Abs(got-want) > 0.01 {
			t.Errorf("share of %s = %.4f, want %.2f within 0.01", readKindNames[k], got, want)
		}
	}
}

func TestShuffledIsASeededPermutation(t *testing.T) {
	a := shuffled(7, 8)
	if !reflect.DeepEqual(a, shuffled(7, 8)) {
		t.Fatal("the same seed gave two orders")
	}
	s := append([]int(nil), a...)
	sort.Ints(s)
	if !reflect.DeepEqual(s, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("%v is not a permutation of 0..7", a)
	}
}
