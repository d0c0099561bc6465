package main

import (
	"sort"
	"time"
)

// Ingest-to-visible latency: the time from a batch's ack to the publish
// of the first view whose trees contain that batch. The service does
// not say which batches a view holds, so the benchmark derives it from
// /stats: a view of p points holds the stream's points up to
// dropped + p, where dropped is what window rotations have retired by
// then. Polls give the dropped total for each rotation count (the
// cumulative applied points minus the window's active + aging points),
// so each view has one candidate end per rotation count; the candidate
// must lie between the previous view's end and what had been sent when
// the view was first seen. With exactly one candidate the view's
// contents are decided; otherwise the batch falls back to the second
// view published after its ack, which started after the ack and so
// must hold it, and the fallback is counted.

// viewSeen is one published view as the /stats poller first saw it.
type viewSeen struct {
	seq             uint64
	published       time.Time
	points          int
	betas, clusters int
	// sentBefore is the cumulative point count whose ingest had been
	// sent when the view was first seen, an upper bound on what its
	// trees can hold.
	sentBefore int
	// end is the cumulative point count the view's trees hold, -1 when
	// undecidable. Set by decideViews.
	end int
}

// windowLog tallies, per rotation count, the dropped total and the
// aging tree's size seen by the polls. A poll that races a rotation can
// mislabel one sample, so the most frequent value wins.
type windowLog struct {
	dropped, aging map[int]map[int]int
}

func newWindowLog() *windowLog {
	return &windowLog{dropped: map[int]map[int]int{}, aging: map[int]map[int]int{}}
}

func (w *windowLog) observe(rotations, dropped, aging int) {
	tally(w.dropped, rotations, dropped)
	tally(w.aging, rotations, aging)
}

func tally(m map[int]map[int]int, k, v int) {
	if m[k] == nil {
		m[k] = map[int]int{}
	}
	m[k][v]++
}

// mode returns the most frequent value (the smallest on a tie).
func mode(counts map[int]int) int {
	best, bestN := 0, -1
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

func (w *windowLog) rotationCounts() []int {
	var rs []int
	for r := range w.dropped {
		rs = append(rs, r)
	}
	sort.Ints(rs)
	return rs
}

// rotationPoints returns, ascending, the cumulative point count at
// which each observed rotation happened: after rotation r the aging
// tree holds the points between the dropped total and that count.
func (w *windowLog) rotationPoints() []int {
	var out []int
	for _, r := range w.rotationCounts() {
		if r >= 1 {
			out = append(out, mode(w.dropped[r])+mode(w.aging[r]))
		}
	}
	return out
}

// decideViews sets each view's end (views in publish order), starting
// from start, the cumulative count before the measured stream.
func decideViews(views []viewSeen, w *windowLog, start int) {
	prev := start
	for i := range views {
		v := &views[i]
		v.end = -1
		cands := map[int]bool{}
		for _, r := range w.rotationCounts() {
			end := mode(w.dropped[r]) + v.points
			if end >= prev && end <= v.sentBefore {
				cands[end] = true
			}
		}
		if len(cands) == 1 {
			for end := range cands {
				v.end = end
			}
			prev = v.end
		}
	}
}

// ackSeen is one acknowledged ingest batch.
type ackSeen struct {
	sent, at time.Time
	// total is the cumulative point count including this batch.
	total int
}

// visibility returns the ack-to-visible latency of each batch that
// became visible in a view published before cutoff, how many of those
// needed the fallback rule, and how many never became visible before
// cutoff. A view published between the send and the ack that already
// holds the batch counts as latency 0.
func visibility(acks []ackSeen, views []viewSeen, cutoff time.Time) (lat []float64, fallbacks, unresolved int) {
	for _, a := range acks {
		got := -1.0
		for vi, v := range views {
			if v.published.After(cutoff) {
				break
			}
			if v.published.Before(a.sent) {
				continue
			}
			if v.end < 0 {
				if u, ok := secondAfter(views[vi:], a.at, cutoff); ok {
					got = ms(u.published.Sub(a.at))
					fallbacks++
				}
				break
			}
			if v.end >= a.total {
				got = max(0, ms(v.published.Sub(a.at)))
				break
			}
		}
		if got < 0 {
			unresolved++
			continue
		}
		lat = append(lat, got)
	}
	return lat, fallbacks, unresolved
}

// secondAfter returns the second view published after t and before
// cutoff.
func secondAfter(views []viewSeen, t, cutoff time.Time) (viewSeen, bool) {
	n := 0
	for _, v := range views {
		if v.published.After(cutoff) {
			break
		}
		if v.published.After(t) {
			if n++; n == 2 {
				return v, true
			}
		}
	}
	return viewSeen{}, false
}
