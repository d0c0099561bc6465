package main

import (
	"reflect"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }

func TestVisibilityWithoutRotation(t *testing.T) {
	w := newWindowLog()
	for i := 0; i < 3; i++ {
		w.observe(0, 0, 0)
	}
	views := []viewSeen{
		{published: at(150), points: 200, sentBefore: 300},
		{published: at(400), points: 500, sentBefore: 600},
	}
	decideViews(views, w, 0)
	if views[0].end != 200 || views[1].end != 500 {
		t.Fatalf("ends %d, %d; want 200, 500", views[0].end, views[1].end)
	}
	acks := []ackSeen{
		{sent: at(0), at: at(10), total: 100},    // first view holds it
		{sent: at(100), at: at(160), total: 200}, // published between send and ack: 0
		{sent: at(200), at: at(210), total: 300}, // the first view predates the send
		{sent: at(500), at: at(510), total: 600}, // no view holds it before the cutoff
	}
	lat, fallbacks, unresolved := visibility(acks, views, at(1000))
	if want := []float64{140, 0, 190}; !reflect.DeepEqual(lat, want) {
		t.Errorf("latencies %v, want %v", lat, want)
	}
	if fallbacks != 0 || unresolved != 1 {
		t.Errorf("fallbacks %d, unresolved %d; want 0, 1", fallbacks, unresolved)
	}
}

func TestVisibilityAcrossRotations(t *testing.T) {
	w := newWindowLog()
	for i := 0; i < 3; i++ {
		w.observe(0, 0, 0)
		w.observe(1, 0, 300) // first rotation after 300 points: nothing dropped yet
		w.observe(2, 1000, 200)
	}
	w.observe(1, 100, 300) // a poll that raced the rotation; outvoted
	if got, want := w.rotationPoints(), []int{300, 1200}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rotation points %v, want %v", got, want)
	}
	views := []viewSeen{
		{published: at(100), points: 300, sentBefore: 300},
		{published: at(300), points: 300, sentBefore: 1400}, // ends 300 or 1300: undecidable
		{published: at(500), points: 500, sentBefore: 1400},
		{published: at(700), points: 400, sentBefore: 1500}, // only 1400 is past the previous end
	}
	decideViews(views, w, 0)
	var ends []int
	for _, v := range views {
		ends = append(ends, v.end)
	}
	if want := []int{300, -1, 500, 1400}; !reflect.DeepEqual(ends, want) {
		t.Fatalf("ends %v, want %v", ends, want)
	}
	acks := []ackSeen{
		{sent: at(0), at: at(50), total: 300},
		{sent: at(150), at: at(200), total: 400},  // meets the undecidable view: fallback
		{sent: at(550), at: at(600), total: 1400}, // held by the view after the second rotation
	}
	lat, fallbacks, unresolved := visibility(acks, views, at(1000))
	if want := []float64{50, 300, 100}; !reflect.DeepEqual(lat, want) {
		t.Errorf("latencies %v, want %v", lat, want)
	}
	if fallbacks != 1 || unresolved != 0 {
		t.Errorf("fallbacks %d, unresolved %d; want 1, 0", fallbacks, unresolved)
	}
}

func TestVisibilityIgnoresViewsAfterCutoff(t *testing.T) {
	w := newWindowLog()
	w.observe(0, 0, 0)
	views := []viewSeen{{published: at(900), points: 100, sentBefore: 100}}
	decideViews(views, w, 0)
	lat, _, unresolved := visibility([]ackSeen{{sent: at(0), at: at(10), total: 100}}, views, at(500))
	if len(lat) != 0 || unresolved != 1 {
		t.Errorf("a view published after the cutoff counted: %v, unresolved %d", lat, unresolved)
	}
}
