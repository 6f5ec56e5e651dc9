//! Open-loop load: requests are sent on a fixed schedule whether or not the
//! system keeps up, and each is timed from when it was *due*, so the wait a
//! stall imposes on the requests behind it is counted.

use std::time::Instant;

/// Time source, so the accounting below can be tested without sleeping.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Return once `now_ns() >= t_ns`.
    fn wait_until(&mut self, t_ns: u64);
}

pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, t_ns: u64) {
        // Spin, not sleep: on this two-CPU virtual machine a sleeping thread
        // wakes 1 to 4 ms after its timer fires, and an open loop charges
        // that to the request. It was most of the commit latency measured
        // and the part that repeated least. The price is a CPU for the
        // load generator.
        while self.now_ns() < t_ns {
            std::hint::spin_loop();
        }
    }
}

/// Due time of each request, in ns from the start of the run, for requests
/// carrying `sizes[i]` units of work sent at `rate` units per second: a
/// request is due once the work ahead of it has been released.
pub fn due_times(sizes: &[u32], rate_per_s: f64) -> Vec<u64> {
    let mut ahead = 0u64;
    sizes
        .iter()
        .map(|&n| {
            let due = (ahead as f64 / rate_per_s * 1e9) as u64;
            ahead += u64::from(n);
            due
        })
        .collect()
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
    /// How long after its due time the request was sent.
    pub late_ns: u64,
    /// Completion time minus due time.
    pub latency_from_due_ns: u64,
}

/// Send request `i` at `due[i]` (or at once when already late) by calling
/// `send(i)`, which returns when the request is acknowledged.
pub fn run_open_loop(
    clock: &mut impl Clock,
    due: &[u64],
    mut send: impl FnMut(usize, &mut dyn Clock),
) -> Vec<Sent> {
    let mut out = Vec::with_capacity(due.len());
    for (i, &due_ns) in due.iter().enumerate() {
        clock.wait_until(due_ns);
        let started = clock.now_ns();
        send(i, clock);
        let done = clock.now_ns();
        out.push(Sent {
            late_ns: started.saturating_sub(due_ns),
            latency_from_due_ns: done.saturating_sub(due_ns),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeClock(u64);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0
        }
        fn wait_until(&mut self, t_ns: u64) {
            self.0 = self.0.max(t_ns);
        }
    }

    #[test]
    fn due_times_follow_the_work_released() {
        // 1000 units/s: 10 units are due every 10 ms.
        assert_eq!(
            due_times(&[10, 10, 5, 10], 1000.0),
            vec![0, 10_000_000, 20_000_000, 25_000_000]
        );
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_behind_it() {
        // One request due every 10 ns; each takes 2 ns except the second,
        // which stalls for 35 ns.
        let due = [0, 10, 20, 30, 40, 50];
        let service = [2u64, 35, 2, 2, 2, 2];
        let mut clock = FakeClock(0);
        let sent = run_open_loop(&mut clock, &due, |i, c| {
            let t = c.now_ns() + service[i];
            c.wait_until(t);
        });
        // Request 1 runs 10..45. Requests 2, 3 and 4 were due at 20, 30 and
        // 40 but start at 45, 47 and 49.
        assert_eq!(
            sent.iter().map(|s| s.late_ns).collect::<Vec<_>>(),
            vec![0, 0, 25, 17, 9, 1]
        );
        assert_eq!(
            sent.iter()
                .map(|s| s.latency_from_due_ns)
                .collect::<Vec<_>>(),
            vec![2, 35, 27, 19, 11, 3]
        );
        // A closed loop would have reported 2 ns for each of them.
    }

    #[test]
    fn an_idle_system_is_never_late() {
        let due = due_times(&[1; 5], 1e9 / 100.0);
        let mut clock = FakeClock(0);
        let sent = run_open_loop(&mut clock, &due, |_, c| {
            let t = c.now_ns() + 10;
            c.wait_until(t);
        });
        assert!(sent
            .iter()
            .all(|s| s.late_ns == 0 && s.latency_from_due_ns == 10));
    }
}
