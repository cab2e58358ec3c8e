//! Checks of the harness's own arithmetic, run at the start of every
//! benchmark run (and by `cargo test`): a run whose arithmetic is wrong
//! reports nothing.

use crate::sched::{self, Clock};
use crate::stats::{percentile, Ratio, TAIL_FLOOR};
use crate::trace::{self_times, Span};
use std::cell::Cell;
use std::time::Duration;

/// Runs every check; the error names the first that failed.
pub fn run() -> Result<(), String> {
    percentiles_need_a_sampled_tail()?;
    stalls_are_charged_from_due_time()?;
    self_time_subtracts_children_once()?;
    ratios_carry_their_base()
}

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("harness self-test failed: {what}"))
    }
}

fn percentiles_need_a_sampled_tail() -> Result<(), String> {
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    check(
        percentile(&samples, 0.99) == Some(990.0),
        "p99 of 1..=1000 is 990",
    )?;
    check(
        percentile(&samples[..999], 0.99).is_none(),
        "p99 needs 10 samples beyond it",
    )?;
    check(
        percentile(&samples[..100], 0.90) == Some(90.0),
        "p90 of 1..=100 is 90",
    )?;
    check(
        percentile(&samples[..99], 0.90).is_none(),
        "p90 of 99 samples has 9 beyond",
    )?;
    check(
        percentile(&samples[..20], 0.5) == Some(10.0),
        "p50 of 1..=20 is 10",
    )?;
    check(percentile(&[], 0.5).is_none(), "no samples, no percentile")?;
    let reversed: Vec<f64> = samples[..2 * TAIL_FLOOR].iter().rev().copied().collect();
    check(
        percentile(&reversed, 0.5) == Some(10.0),
        "percentile sorts its input",
    )
}

/// A simulated clock: sleeping jumps ahead, a call advances by its
/// service time.
struct FakeClock(Cell<Duration>);

impl Clock for FakeClock {
    fn now(&self) -> Duration {
        self.0.get()
    }

    fn sleep_until(&self, t: Duration) {
        if t > self.0.get() {
            self.0.set(t);
        }
    }
}

fn stalls_are_charged_from_due_time() -> Result<(), String> {
    let ms = Duration::from_millis;
    let clock = FakeClock(Cell::new(Duration::ZERO));
    let dues: Vec<Duration> = (0..10).map(ms).collect();
    // 0.1 ms per request, except a 5 ms stall on request 2.
    let runs = sched::run(&clock, &dues, |i, _| {
        let service = if i == 2 {
            ms(5)
        } else {
            Duration::from_micros(100)
        };
        clock.0.set(clock.0.get() + service);
    });
    let lat: Vec<Duration> = runs.iter().map(|(t, _)| t.latency()).collect();
    check(
        lat[1] == Duration::from_micros(100),
        "an unstalled request costs its service time",
    )?;
    check(lat[2] == ms(5), "the stalled request is charged its stall")?;
    // Request 3 was due at 3 ms but could only go out at 7 ms.
    check(
        lat[3] == Duration::from_micros(4100),
        "the stall is charged to the next request",
    )?;
    check(
        lat[4] == Duration::from_micros(3200),
        "and to every later one it delays",
    )?;
    check(
        lat[7] == Duration::from_micros(500),
        "until the backlog drains",
    )?;
    check(
        lat[8] == Duration::from_micros(100),
        "after which latency is service time again",
    )?;
    check(
        runs.iter().all(|(t, _)| t.generator_late().is_zero()),
        "waiting on the server is not generator lateness",
    )?;
    check(
        runs[3].0.rtt() == Duration::from_micros(100),
        "rtt excludes the wait",
    )
}

fn self_time_subtracts_children_once() -> Result<(), String> {
    let span = |start, end, parent| Span {
        name: "s",
        start,
        end,
        parent,
        req: 0,
    };
    let spans = vec![
        span(0, 100, None),
        span(10, 40, Some(0)),
        span(30, 60, Some(0)),  // overlaps the first child: 10..60 covered once
        span(90, 130, Some(0)), // sticks out of the parent: only 90..100 counts
        span(15, 25, Some(1)),  // a grandchild counts against its own parent only
    ];
    let own = self_times(&spans);
    check(
        own[0] == 100 - 50 - 10,
        "parent self time subtracts merged child coverage",
    )?;
    check(own[1] == 30 - 10, "child self time subtracts its own child")?;
    check(
        own[2] == 30 && own[4] == 10,
        "leaf self time is its duration",
    )
}

fn ratios_carry_their_base() -> Result<(), String> {
    let r = Ratio::new(3.0, 4.0);
    check(r.value() == Some(0.75), "3/4 is 0.75")?;
    check(
        r.to_string() == "0.750000 (3 / 4)",
        "a ratio prints its base",
    )?;
    let empty = Ratio::new(0.0, 0.0);
    check(empty.value().is_none(), "an empty base has no value")?;
    check(
        empty.to_string() == "n/a (0 / 0)",
        "an empty ratio prints its base",
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn harness_arithmetic() {
        super::run().unwrap();
    }
}
