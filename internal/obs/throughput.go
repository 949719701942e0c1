package obs

import (
	"fmt"
	"time"
)

// EventsPerSec converts an event count over a wall-clock span into a rate,
// guarding the zero-duration edge (a run too fast to measure reports 0).
func EventsPerSec(events uint64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(events) / wall.Seconds()
}

// ThroughputLine renders the canonical one-line run-throughput summary the
// CLIs print; exp.Result wraps it so nylon-sim and the experiment runner
// compute events/s in exactly one place.
func ThroughputLine(events uint64, wall time.Duration, workers, shards int) string {
	return fmt.Sprintf("%d events in %v (%.0f events/s, %d workers × %d shards)",
		events, wall.Round(time.Millisecond), EventsPerSec(events, wall), workers, shards)
}
