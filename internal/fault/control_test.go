package fault

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestRangesSplit pins the fan-out's parts: ⌈n/workers⌉ indexes each,
// numbered in index order, the last one shorter, and at most n parts.
func TestRangesSplit(t *testing.T) {
	for _, tc := range []struct {
		n, workers int
		want       [][3]int // part, lo, hi
	}{
		{10, 4, [][3]int{{0, 0, 3}, {1, 3, 6}, {2, 6, 9}, {3, 9, 10}}},
		{9, 4, [][3]int{{0, 0, 3}, {1, 3, 6}, {2, 6, 9}}},
		{3, 8, [][3]int{{0, 0, 1}, {1, 1, 2}, {2, 2, 3}}},
		{5, 1, [][3]int{{0, 0, 5}}},
		{0, 4, nil},
	} {
		var mu sync.Mutex
		var got [][3]int
		err := Ranges(NewControl(context.Background()), tc.n, tc.workers, func(part, lo, hi int) error {
			mu.Lock()
			defer mu.Unlock()
			for len(got) <= part {
				got = append(got, [3]int{-1, -1, -1})
			}
			got[part] = [3]int{part, lo, hi}
			return nil
		})
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Ranges(n=%d, workers=%d) ran %v (err %v), want %v", tc.n, tc.workers, got, err, tc.want)
		}
	}
}

// TestControlFirstFailureWins proves a control keeps its first failure:
// later Fail calls, checkpoints and a cancelled context all report it.
func TestControlFirstFailureWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewControl(ctx)
	if err := c.Check("p"); err != nil || c.FirstErr() != nil {
		t.Fatalf("fresh control: Check = %v, FirstErr = %v", err, c.FirstErr())
	}
	first, second := errors.New("first"), errors.New("second")
	if err := c.Fail(first); err != first {
		t.Fatalf("Fail(first) = %v", err)
	}
	cancel()
	if err := c.Fail(second); err != first {
		t.Fatalf("Fail(second) = %v, want the first failure", err)
	}
	if err := c.Check("p"); err != first {
		t.Fatalf("Check = %v, want the first failure", err)
	}
	if err := c.FirstErr(); err != first {
		t.Fatalf("FirstErr = %v, want the first failure", err)
	}

	// A cancelled context is a failure the checkpoint records.
	c = NewControl(ctx)
	if err := c.Check("p"); !errors.Is(err, context.Canceled) || c.FirstErr() != err {
		t.Fatalf("cancelled: Check = %v, FirstErr = %v", err, c.FirstErr())
	}

	// A nil control records nothing and stops nothing.
	var none *Control
	if err := none.Fail(second); err != second || none.FirstErr() != nil || none.Check("p") != nil {
		t.Fatal("a nil control is not a no-op")
	}
}

// TestRangesPartErrors proves a part's own error is returned only when
// the control recorded none, and then the lowest part's.
func TestRangesPartErrors(t *testing.T) {
	partErr := func(part int) error { return fmt.Errorf("part %d", part) }
	fn := func(part, lo, hi int) error {
		if part == 0 {
			return nil
		}
		return partErr(part)
	}
	if err := Ranges(NewControl(nil), 40, 4, fn); err == nil || err.Error() != "part 1" {
		t.Fatalf("Ranges = %v, want the lowest failing part's error", err)
	}

	recorded := errors.New("recorded")
	c := NewControl(nil)
	err := Ranges(c, 40, 4, func(part, lo, hi int) error {
		if part == 3 {
			return c.Fail(recorded)
		}
		return fn(part, lo, hi)
	})
	if err != recorded {
		t.Fatalf("Ranges = %v, want the control's failure %v", err, recorded)
	}
}

// TestRangesPanicStopsPeers proves a contained panic is recorded in the
// control, so a peer's next checkpoint returns it, and that Ranges
// returns it with its stack.
func TestRangesPanicStopsPeers(t *testing.T) {
	c := NewControl(context.Background())
	var peerErr error
	err := Ranges(c, 2, 2, func(part, lo, hi int) error {
		if part == 0 {
			panic("poisoned part")
		}
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			if peerErr = c.Check("p"); peerErr != nil {
				return peerErr
			}
			time.Sleep(time.Millisecond)
		}
		return errors.New("the peer's checkpoint never saw the panic")
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "poisoned part" || len(pe.Stack) == 0 {
		t.Fatalf("Ranges = %v, want the contained panic with its stack", err)
	}
	if peerErr != err {
		t.Fatalf("peer's checkpoint returned %v, want the recorded panic %v", peerErr, err)
	}
}
