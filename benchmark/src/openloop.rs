//! The open-loop generator's clockwork: send each request at its due
//! instant regardless of how the system is doing, and account every
//! request *from its due instant*, so a stall is charged to every
//! request it delayed — not just the one that was in flight.

use std::time::{Duration, Instant};

pub trait Clock {
    /// Time since the start of the run.
    fn now(&mut self) -> Duration;
    /// Return no earlier than `due` (immediately if it has passed).
    fn wait_until(&mut self, due: Duration);
}

/// Wall time: sleeps (never spins for long — on a small machine the
/// generator shares cores with the service it measures), then polls the
/// last stretch, which a sleep alone would overshoot by about the
/// kernel's timer slack.
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    const SPIN: Duration = Duration::from_micros(120);

    pub fn start() -> WallClock {
        WallClock {
            epoch: Instant::now(),
        }
    }

    pub fn instant_of(&self, t: Duration) -> Instant {
        self.epoch + t
    }
}

impl Clock for WallClock {
    fn now(&mut self) -> Duration {
        self.epoch.elapsed()
    }

    fn wait_until(&mut self, due: Duration) {
        if let Some(wait) = due.checked_sub(self.epoch.elapsed() + Self::SPIN) {
            std::thread::sleep(wait);
        }
        while self.epoch.elapsed() < due {
            std::hint::spin_loop();
        }
    }
}

/// Send request `i` at `due[i]`, telling `send` when the send started
/// and how late that was. `send` may take arbitrarily long (that is the
/// stall): later requests then start late, and their lateness is part of
/// their latency.
pub fn drive<C: Clock>(
    due: &[Duration],
    clock: &mut C,
    mut send: impl FnMut(&mut C, usize, Duration, Duration),
) {
    for (i, &d) in due.iter().enumerate() {
        clock.wait_until(d);
        let started = clock.now();
        send(clock, i, started, started.saturating_sub(d));
    }
}

/// Latency of a request as its user saw it: from the instant it was due.
pub fn from_due(late: Duration, turnaround: Duration) -> Duration {
    late + turnaround
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeClock(Duration);

    impl Clock for FakeClock {
        fn now(&mut self) -> Duration {
            self.0
        }

        fn wait_until(&mut self, due: Duration) {
            self.0 = self.0.max(due);
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        let ms = Duration::from_millis;
        let due = [ms(0), ms(1), ms(2), ms(3), ms(10)];
        let mut clock = FakeClock(ms(0));
        // Sending request 1 blocks for 5 ms; every send itself is instant.
        let mut late = Vec::new();
        drive(&due, &mut clock, |c, i, _, l| {
            late.push(l);
            if i == 1 {
                c.0 += ms(5);
            }
        });
        assert_eq!(late, [ms(0), ms(0), ms(4), ms(3), ms(0)]);
        // With a 1 ms service time the users of requests 2 and 3 waited
        // 5 and 4 ms — timing from the send instead would report 1 ms.
        assert_eq!(from_due(late[2], ms(1)), ms(5));
        assert_eq!(from_due(late[3], ms(1)), ms(4));
        assert_eq!(from_due(late[4], ms(1)), ms(1));
    }
}
