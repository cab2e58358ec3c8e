//! The open-loop schedule: requests are due at fixed times whatever the
//! server does, and each one is timed from when it was *due*, so a stall
//! is charged to every request it delays (no coordinated omission).

use std::time::{Duration, Instant};

/// Time source of a schedule (the wall clock, or a simulated one in the
/// harness self-test).
pub trait Clock {
    /// Time since the schedule's epoch.
    fn now(&self) -> Duration;
    /// Blocks until `t` (returns at once when `t` has passed).
    fn sleep_until(&self, t: Duration);
}

/// The real clock, counting from `epoch`.
pub struct Wall(pub Instant);

impl Clock for Wall {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// The timing of one scheduled request on a synchronous connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// When the request was due.
    pub due: Duration,
    /// When the connection became free (the previous reply arrived).
    pub free: Duration,
    /// When the request was sent.
    pub sent: Duration,
    /// When its reply was complete.
    pub done: Duration,
}

impl Timing {
    /// Latency charged to the request: reply time minus *due* time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// Round trip of the call itself (send to reply).
    pub fn rtt(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }

    /// How late the generator itself sent: time past the later of the due
    /// time and the moment the connection was free. Waiting on the
    /// server is not the generator's lateness.
    pub fn generator_late(&self) -> Duration {
        self.sent.saturating_sub(self.due.max(self.free))
    }
}

/// Runs `call(i)` for each due time in order on one synchronous
/// connection: sleeps until the request is due (or sends at once when the
/// previous reply came back late) and records its [`Timing`].
pub fn run<C: Clock, R>(
    clock: &C,
    dues: &[Duration],
    mut call: impl FnMut(usize, &Timing) -> R,
) -> Vec<(Timing, R)> {
    let mut out = Vec::with_capacity(dues.len());
    let mut free = clock.now();
    for (i, &due) in dues.iter().enumerate() {
        clock.sleep_until(due);
        let sent = clock.now();
        let mut timing = Timing {
            due,
            free,
            sent,
            done: sent,
        };
        let result = call(i, &timing);
        timing.done = clock.now();
        free = timing.done;
        out.push((timing, result));
    }
    out
}

/// `n` due times over `[0, span)`: one per slot of length `span / n`, at
/// a uniformly random point in its slot. The random phase keeps arrivals
/// from locking onto the server's own periodic work (which would make a
/// run's latencies depend on one chance alignment), while one arrival
/// per slot keeps random bursts from building a backlog the offered rate
/// does not imply.
pub fn jittered(n: usize, span: Duration, rng: &mut impl rand::Rng) -> Vec<Duration> {
    let slot = span.div_f64(n.max(1) as f64);
    (0..n)
        .map(|i| slot.mul_f64(i as f64 + rng.random::<f64>()))
        .collect()
}
