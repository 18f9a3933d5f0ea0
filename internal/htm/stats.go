package htm

import "sync/atomic"

// Stats counts attempt outcomes per cause, plus the slow path's session
// counters.
type Stats struct {
	counts [numCauses]atomic.Int64

	fallbackAcquires atomic.Int64 // fallback sessions started
	fallbackLines    atomic.Int64 // lock-table slots acquired by sessions
	fallbackBlocked  atomic.Int64 // tx aborts caused by a fallback-held slot
	fallbackRestarts atomic.Int64 // whole-session restarts (lock contention)
}

func (s *Stats) record(c AbortCause) { s.counts[c].Add(1) }

// StatsSnapshot is a point-in-time copy of the TM's outcome counters,
// the data behind the paper's Fig. 2 (commit/abort-rate breakdown).
type StatsSnapshot struct {
	Commits   int64
	Conflict  int64
	Capacity  int64
	Explicit  int64
	Locked    int64
	Spurious  int64
	MemType   int64
	PersistOp int64

	// Slow-path counters. FallbackAcquires counts sessions started;
	// FallbackLines is the total lock-table slots those sessions acquired;
	// FallbackBlocked counts fast-path aborts whose blocking slot was
	// session-held; FallbackRestarts counts whole-session restarts forced
	// by lock-order discipline.
	FallbackAcquires int64
	FallbackLines    int64
	FallbackBlocked  int64
	FallbackRestarts int64
}

// Attempts is the total number of transaction attempts.
func (s StatsSnapshot) Attempts() int64 {
	return s.Commits + s.Aborts()
}

// Aborts is the total number of aborted attempts.
func (s StatsSnapshot) Aborts() int64 {
	return s.Conflict + s.Capacity + s.Explicit + s.Locked + s.Spurious + s.MemType + s.PersistOp
}

// CommitRate is the fraction of attempts that committed. An idle TM (no
// attempts) reports 1.0 — "nothing has failed" — rather than 0, which
// reads as a 100% abort rate and turns downstream success-rate math into
// NaN fodder.
func (s StatsSnapshot) CommitRate() float64 {
	a := s.Attempts()
	if a == 0 {
		return 1
	}
	return float64(s.Commits) / float64(a)
}

// Rate returns the fraction of attempts that aborted for the given cause.
func (s StatsSnapshot) Rate(c AbortCause) float64 {
	a := s.Attempts()
	if a == 0 {
		return 0
	}
	var n int64
	switch c {
	case CauseNone:
		n = s.Commits
	case CauseConflict:
		n = s.Conflict
	case CauseCapacity:
		n = s.Capacity
	case CauseExplicit:
		n = s.Explicit
	case CauseLocked:
		n = s.Locked
	case CauseSpurious:
		n = s.Spurious
	case CauseMemType:
		n = s.MemType
	case CausePersistOp:
		n = s.PersistOp
	}
	return float64(n) / float64(a)
}

// Sub returns the interval difference s - prev.
func (s StatsSnapshot) Sub(prev StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Commits:   s.Commits - prev.Commits,
		Conflict:  s.Conflict - prev.Conflict,
		Capacity:  s.Capacity - prev.Capacity,
		Explicit:  s.Explicit - prev.Explicit,
		Locked:    s.Locked - prev.Locked,
		Spurious:  s.Spurious - prev.Spurious,
		MemType:   s.MemType - prev.MemType,
		PersistOp: s.PersistOp - prev.PersistOp,

		FallbackAcquires: s.FallbackAcquires - prev.FallbackAcquires,
		FallbackLines:    s.FallbackLines - prev.FallbackLines,
		FallbackBlocked:  s.FallbackBlocked - prev.FallbackBlocked,
		FallbackRestarts: s.FallbackRestarts - prev.FallbackRestarts,
	}
}

func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		Commits:   s.counts[CauseNone].Load(),
		Conflict:  s.counts[CauseConflict].Load(),
		Capacity:  s.counts[CauseCapacity].Load(),
		Explicit:  s.counts[CauseExplicit].Load(),
		Locked:    s.counts[CauseLocked].Load(),
		Spurious:  s.counts[CauseSpurious].Load(),
		MemType:   s.counts[CauseMemType].Load(),
		PersistOp: s.counts[CausePersistOp].Load(),

		FallbackAcquires: s.fallbackAcquires.Load(),
		FallbackLines:    s.fallbackLines.Load(),
		FallbackBlocked:  s.fallbackBlocked.Load(),
		FallbackRestarts: s.fallbackRestarts.Load(),
	}
}
