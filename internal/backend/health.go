package backend

// HealthReport is a point-in-time health snapshot of a backend: its
// occupancy against its capacity.
type HealthReport struct {
	// Occupancy and Capacity describe the backend's fill level.
	// Capacity is 0 when the backend cannot report one.
	Occupancy int
	Capacity  int
}

// OccupancyFraction returns Occupancy/Capacity, or 0 when the capacity
// is unknown.
func (r HealthReport) OccupancyFraction() float64 {
	if r.Capacity <= 0 {
		return 0
	}
	return float64(r.Occupancy) / float64(r.Capacity)
}

// Health is SyncList's health surface. Callers use
// ShardedList.Health directly; the interface stays declared because the
// benchmark's tracing wrapper names it.
type Health interface {
	Health() HealthReport
}
