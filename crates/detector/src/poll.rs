//! Poll-timer scheduling for hosts of a [`crate::FailureDetector`].

use std::collections::BTreeSet;

use qsel_simnet::{SimDuration, SimTime};

/// Which poll timers a host has pending, so it arms at most one per
/// instant.
///
/// A host polls the detector one microsecond after its earliest deadline
/// (or right away when that deadline has passed). Simulator timers cannot
/// be cancelled, so a host that arms a poll after every event piles up
/// hundreds of timers per deadline. With this schedule the host arms a
/// poll only if none is pending at that exact instant.
///
/// The dedup is per instant, not "keep the earliest". A second poll at an
/// instant that already has one finds nothing new: every expectation
/// added at that instant has a deadline strictly after it, because every
/// timeout has a positive floor. So dropping it changes nothing. Polls at
/// different instants are all kept, because each one fires at its own
/// place in the event order.
///
/// Call [`PollSchedule::fired`] when a poll timer fires and
/// [`PollSchedule::reset`] when the host restarts, since its pending
/// timers died with the old incarnation.
#[derive(Clone, Debug, Default)]
pub struct PollSchedule {
    pending: BTreeSet<SimTime>,
}

impl PollSchedule {
    /// An empty schedule: no poll pending.
    pub fn new() -> Self {
        PollSchedule::default()
    }

    /// The delay after which the host should arm a poll timer for the
    /// detector's `next_deadline`, or `None` when there is no deadline or
    /// a poll is already pending at that instant. The poll instant is
    /// `max(deadline, now) + 1 µs`.
    pub fn arm(&mut self, now: SimTime, next_deadline: Option<SimTime>) -> Option<SimDuration> {
        let at = next_deadline?.max(now) + SimDuration::micros(1);
        self.pending.insert(at).then(|| at - now)
    }

    /// A poll timer fired at `now`. Every pending instant at or before
    /// `now` is gone: its timer either just fired or fired earlier. A
    /// timer the simulator held during a pause fires late, at the resume
    /// instant, so one fire may cover several recorded instants.
    pub fn fired(&mut self, now: SimTime) {
        while self.pending.first().is_some_and(|&at| at <= now) {
            self.pending.pop_first();
        }
    }

    /// Forgets every pending poll (the host restarted, so its timers
    /// belong to a dead incarnation and will never fire).
    pub fn reset(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::micros(us)
    }

    #[test]
    fn no_deadline_arms_nothing() {
        let mut s = PollSchedule::new();
        assert_eq!(s.arm(t(5), None), None);
    }

    #[test]
    fn same_instant_is_armed_once() {
        let mut s = PollSchedule::new();
        // Deadline 100 µs: poll at 101 µs, whatever the current time.
        assert_eq!(s.arm(t(10), Some(t(100))), Some(SimDuration::micros(91)));
        assert_eq!(s.arm(t(10), Some(t(100))), None);
        assert_eq!(s.arm(t(50), Some(t(100))), None);
        // A different instant gets its own poll, earlier or later.
        assert_eq!(s.arm(t(50), Some(t(80))), Some(SimDuration::micros(31)));
        assert_eq!(s.arm(t(50), Some(t(200))), Some(SimDuration::micros(151)));
        // A passed deadline polls 1 µs from now.
        assert_eq!(s.arm(t(300), Some(t(100))), Some(SimDuration::micros(1)));
        assert_eq!(s.arm(t(300), Some(t(250))), None);
    }

    #[test]
    fn fire_clears_only_instants_up_to_now() {
        let mut s = PollSchedule::new();
        s.arm(t(0), Some(t(100)));
        s.arm(t(0), Some(t(200)));
        s.fired(t(101));
        // Probing with an earlier `now`: 201 µs is still pending, 101 µs
        // is free again.
        assert_eq!(s.arm(t(0), Some(t(200))), None);
        assert!(s.arm(t(0), Some(t(100))).is_some());
    }

    #[test]
    fn late_fire_after_pause_clears_every_earlier_instant() {
        let mut s = PollSchedule::new();
        s.arm(t(0), Some(t(100)));
        s.arm(t(0), Some(t(200)));
        s.arm(t(0), Some(t(900)));
        // Paused from 50 µs to 500 µs: the 101 µs and 201 µs polls are
        // replayed at 500 µs; the first of them clears both instants, the
        // second clears nothing more.
        s.fired(t(500));
        s.fired(t(500));
        assert_eq!(s.arm(t(500), Some(t(900))), None);
        assert!(s.arm(t(0), Some(t(100))).is_some());
        assert!(s.arm(t(0), Some(t(200))).is_some());
        // After resuming, a passed deadline polls again.
        assert_eq!(s.arm(t(500), Some(t(100))), Some(SimDuration::micros(1)));
    }

    #[test]
    fn reset_forgets_dead_incarnation_timers() {
        let mut s = PollSchedule::new();
        s.arm(t(0), Some(t(100)));
        s.reset();
        // The restarted host re-arms the same instant.
        assert_eq!(s.arm(t(0), Some(t(100))), Some(SimDuration::micros(101)));
    }
}
