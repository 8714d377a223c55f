package bgp

import (
	"fmt"
	"time"

	"bgpsim/internal/des"
)

// This file holds the control-plane hooks the churn subsystem
// (internal/churn) drives the simulator through: generic control-event
// scheduling, explicit measurement-window management, link recovery, and
// the initial-convergence entry point shared with ConvergeAndFail. All
// of them reuse the exact machinery of the batch-failure flow —
// ScheduleFailure/ScheduleRecovery, openWindow/normalizeWindow — so a
// churn program composes with prefixes and warm start by construction.

// ScheduleControl schedules fn as a global control event at absolute
// time at, on the engine failures and recoveries run on. Control events
// at equal timestamps execute in the order they were scheduled, which is
// what lets a churn program order "capture previous window" before "open
// the next" at the same instant.
func (s *Simulator) ScheduleControl(at des.Time, fn func()) {
	s.eng.ScheduleAt(at, fn)
}

// OpenMeasurementWindow opens the metrics measurement window at time at
// and normalizes away any pre-window residue (see normalizeWindow) —
// the same sequence ScheduleFailure performs implicitly. It must be
// called from inside a control event executing at time at (use
// ScheduleControl); churn programs call it before perturbations that do
// not open a window themselves, such as recoveries.
func (s *Simulator) OpenMeasurementWindow(at des.Time) {
	s.openWindow(at)
	s.normalizeWindow(at)
}

// WindowStats is a point-in-time snapshot of the windowed metrics
// counters — one churn measurement window's worth of observables.
type WindowStats struct {
	// Start is the absolute simulated time the window opened.
	Start time.Duration
	// LastActivity is the absolute time of the last BGP activity seen in
	// the window; equal to Start when the window saw no activity.
	LastActivity time.Duration
	// Delay is LastActivity - Start, the paper's convergence delay.
	Delay time.Duration

	// Announcements counts UPDATE announcements sent in the window.
	Announcements int
	// Withdrawals counts withdrawals sent in the window.
	Withdrawals int
	// Packets counts update packets sent in the window.
	Packets int
	// Processed counts updates taken off input queues in the window.
	Processed int
	// Discarded counts updates dropped unprocessed in the window.
	Discarded int
	// RouteChanges counts best-route changes in the window.
	RouteChanges int
	// MaxQueueLen is the peak input-queue length seen in the window.
	MaxQueueLen int
}

// CaptureWindow snapshots the currently open measurement window's
// counters. Call it from a control event scheduled just before the next
// perturbation (which reopens the window), or after Run returns to
// capture the final window.
func (s *Simulator) CaptureWindow() WindowStats {
	col := s.col
	return WindowStats{
		Start:         col.WindowStart(),
		LastActivity:  col.LastActivity(),
		Delay:         col.ConvergenceDelay(),
		Announcements: col.Announcements,
		Withdrawals:   col.Withdrawals,
		Packets:       col.Packets,
		Processed:     col.Processed,
		Discarded:     col.Discarded,
		RouteChanges:  col.RouteChanges(),
		MaxQueueLen:   col.MaxQueueLen,
	}
}

// ScheduleLinkRecovery re-establishes the sessions on the given links at
// time at — the inverse of ScheduleLinkFailure. Each link is a pair of
// node IDs; links with a dead endpoint, unknown links, and sessions
// already up are ignored (session state is idempotent, so a recovery
// racing a node failure in a churn program degrades to a no-op rather
// than an error). Both ends re-advertise their full Loc-RIB over the
// restored session, the standard session-establishment behaviour. No
// measurement window is opened; churn programs pair this with
// OpenMeasurementWindow when the recovery starts a window of its own.
func (s *Simulator) ScheduleLinkRecovery(at des.Time, links [][2]int) {
	restored := append([][2]int(nil), links...)
	s.eng.ScheduleAt(at, func() {
		for _, l := range restored {
			a, b := l[0], l[1]
			if a < 0 || b < 0 || a >= len(s.routers) || b >= len(s.routers) {
				continue
			}
			ra, rb := s.routers[a], s.routers[b]
			if !ra.alive || !rb.alive {
				continue
			}
			slotAB, okA := ra.slotOf[b]
			slotBA, okB := rb.slotOf[a]
			if !okA || !okB {
				continue
			}
			ra.peerUp(slotAB)
			rb.peerUp(slotBA)
		}
	})
}

// ConvergeInitial brings the simulator to its initial converged state:
// with Params.WarmStart the snapshot backend's fixpoint is installed
// directly (no phase-1 simulation); otherwise initial route propagation
// is simulated to quiescence and the path table compacted. After it
// returns, Now() is the quiescent time and the simulator is ready for
// failure injection — ConvergeAndFail and churn programs both start
// here.
func (s *Simulator) ConvergeInitial() error {
	if s.params.WarmStart {
		if err := s.warmStart(); err != nil {
			return fmt.Errorf("warm start: %w", err)
		}
		return nil
	}
	s.Start()
	if err := s.Run(); err != nil {
		return fmt.Errorf("initial convergence: %w", err)
	}
	// Quiescence is the one moment the live path set is exactly the
	// RIB contents; shed the exploration storm's dead paths before
	// the perturbation phase piles its own on top.
	s.maybeCompactPaths()
	return nil
}
