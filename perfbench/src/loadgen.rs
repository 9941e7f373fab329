//! Load generators: a closed loop (next request when the last one
//! answers) and an open loop (requests due on a fixed schedule, each
//! timed from when it was due, so a stall charges its wait to every
//! request queued behind it). Both take the end stamp as soon as
//! `send` returns; what the caller does with the answer runs in
//! `finish`, after the stamp, and is timed apart as `finish_us`.

use std::time::{Duration, Instant};

/// Time source of a load loop; a fake one drives the tests.
pub trait Clock {
    /// Time since the loop's origin.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= t`.
    fn sleep_until(&self, t: Duration);
}

/// Wall clock anchored at an `Instant`.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
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

/// One issued request.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Index in the connection's request stream.
    pub idx: usize,
    /// Completion minus due time (open loop) or send time (closed).
    pub latency_us: f64,
    /// Send time minus due time (0 in a closed loop).
    pub late_us: f64,
    /// Time `finish` took, outside `latency_us`.
    pub finish_us: f64,
    /// Clock readings when the request was sent and answered.
    pub sent: Duration,
    pub done: Duration,
}

/// Issues `send(i)` for `i = 0, 1, …` at `rate` per second from
/// `start` until the next due time reaches `end`, and hands each answer
/// to `finish`. Returns each request's timing paired with what
/// `finish` returned.
pub fn open_loop<C: Clock, R, T>(
    clock: &C,
    rate: f64,
    start: Duration,
    end: Duration,
    mut send: impl FnMut(usize) -> R,
    mut finish: impl FnMut(usize, R) -> T,
) -> Vec<(Timing, T)> {
    let gap = Duration::from_secs_f64(1.0 / rate);
    let mut out = Vec::new();
    let mut due = start;
    while due < end {
        clock.sleep_until(due);
        let sent = clock.now();
        let r = send(out.len());
        let done = clock.now();
        let t = finish(out.len(), r);
        out.push((
            Timing {
                idx: out.len(),
                latency_us: us(done - due),
                late_us: us(sent - due),
                finish_us: us(clock.now() - done),
                sent,
                done,
            },
            t,
        ));
        due += gap;
    }
    out
}

/// Issues `send(i)` back to back from `start` until `end`, handing
/// each answer to `finish`.
pub fn closed_loop<C: Clock, R, T>(
    clock: &C,
    start: Duration,
    end: Duration,
    mut send: impl FnMut(usize) -> R,
    mut finish: impl FnMut(usize, R) -> T,
) -> Vec<(Timing, T)> {
    clock.sleep_until(start);
    let mut out = Vec::new();
    while clock.now() < end {
        let sent = clock.now();
        let r = send(out.len());
        let done = clock.now();
        let t = finish(out.len(), r);
        out.push((
            Timing {
                idx: out.len(),
                latency_us: us(done - sent),
                late_us: 0.0,
                finish_us: us(clock.now() - done),
                sent,
                done,
            },
            t,
        ));
    }
    out
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use std::cell::Cell;

    /// Virtual time: sleeping jumps the clock; requests advance it by
    /// their service time.
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

    impl FakeClock {
        fn work(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // 100/s (10 ms apart), 1 ms each, except request 500 stalls 200 ms.
        let stalled = 500;
        let out = open_loop(
            &clock,
            100.0,
            Duration::ZERO,
            Duration::from_secs(20),
            |i| {
                clock.work(if i == stalled { 200 * MS } else { MS });
            },
            |_, r| r,
        );
        assert_eq!(out.len(), 2000);
        let lat = |i: usize| out[i].0.latency_us / 1e3;
        assert!((lat(stalled) - 200.0).abs() < 1e-6);
        // Requests due during the stall start late and carry the rest of
        // the wait: request stalled+k is due 10k ms after the stall began
        // and finishes at 200 + k ms.
        for k in 1..20 {
            let expect = 200.0 + k as f64 - 10.0 * k as f64;
            assert!(
                (lat(stalled + k) - expect).abs() < 1e-6,
                "k={k}: {}",
                lat(stalled + k)
            );
            assert!(out[stalled + k].0.late_us > 0.0);
        }
        // Once the backlog drains, latency is back to the service time.
        assert!((lat(stalled + 25) - 1.0).abs() < 1e-6);
        // The generator's lateness percentile shows the stall...
        let late: Vec<f64> = out.iter().map(|(t, _)| t.late_us / 1e3).collect();
        let p99 = percentile(&late, 99.0).unwrap();
        assert!(p99.value >= 1.0, "late p99 {} ms", p99.value);
        assert_eq!(p99.samples, 2000);
        // ...and without the stall the generator is never late.
        let calm = open_loop(
            &clock,
            100.0,
            clock.now(),
            clock.now() + Duration::from_secs(20),
            |_| clock.work(MS),
            |_, r| r,
        );
        let late: Vec<f64> = calm.iter().map(|(t, _)| t.late_us).collect();
        assert_eq!(percentile(&late, 99.0).unwrap().value, 0.0);
    }

    #[test]
    fn closed_loop_times_from_send_and_stops_at_end() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let out = closed_loop(
            &clock,
            Duration::ZERO,
            Duration::from_millis(100),
            |i| clock.work(if i == 3 { 50 * MS } else { 10 * MS }),
            |_, r| r,
        );
        assert_eq!(out.len(), 6);
        assert!((out[4].0.latency_us - 10_000.0).abs() < 1e-6);
        assert!(out.iter().all(|(t, _)| t.late_us == 0.0));
    }

    #[test]
    fn finish_runs_after_the_end_stamp() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let out = closed_loop(
            &clock,
            Duration::ZERO,
            Duration::from_millis(100),
            |_| clock.work(10 * MS),
            |i, ()| {
                clock.work(2 * MS);
                i
            },
        );
        // 12 ms per round trip, of which only the 10 ms of `send` count.
        assert_eq!(out.len(), 9);
        for (k, (t, i)) in out.iter().enumerate() {
            assert_eq!(*i, k);
            assert!((t.latency_us - 10_000.0).abs() < 1e-6);
            assert!((t.finish_us - 2_000.0).abs() < 1e-6);
        }
        let out = open_loop(
            &clock,
            50.0,
            clock.now(),
            clock.now() + Duration::from_secs(1),
            |_| clock.work(MS),
            |_, ()| clock.work(5 * MS),
        );
        assert!(out
            .iter()
            .all(|(t, _)| (t.latency_us - 1_000.0).abs() < 1e-6));
    }
}
