//go:build fault

package serve

import (
	"testing"
	"time"

	"mrcc/internal/fault"
)

// TestIngestBuildsOffMu pins that an ingest, with a WAL and without,
// builds its batch's run without holding mu, so a pass's snapshot,
// /stats and /readyz never wait behind it: the build's merge fault
// point, armed to report whether mu is free, must find it free.
func TestIngestBuildsOffMu(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Cleanup(fault.Reset)
		cfg := Config{Dims: 2, ReclusterEvery: time.Hour}
		if durable {
			cfg.WALDir = t.TempDir()
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fired, held := false, false
		fault.Set(fault.BuildMerge, func() error {
			fired = true
			if s.mu.TryLock() {
				s.mu.Unlock()
			} else {
				held = true
			}
			return nil
		})
		if _, err := s.ingest([][]float64{{0.1, 0.2}, {0.7, 0.4}}); err != nil {
			t.Fatal(err)
		}
		if !fired {
			t.Fatalf("durable=%v: the batch's build never reached fault.BuildMerge", durable)
		}
		if held {
			t.Fatalf("durable=%v: mu was held while the batch's run was built", durable)
		}
	}
}
