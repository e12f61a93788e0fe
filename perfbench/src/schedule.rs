//! The open-loop arrival schedule: a seeded Poisson process at a fixed
//! absolute rate over a fixed popularity mix, and the due-time latency
//! accounting that charges a late send to its request.
//!
//! The schedule is a pure function of `(seed, rate, request count, mix,
//! input pools)`. It is generated before the first request runs and
//! [`drive`] sends against it without feedback: a slow service or a late
//! send never shifts any later due time, so a faster program receives
//! exactly the same load as a slower one.

use nm_nn::rng::XorShift;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, as an offset from the schedule's start.
    pub due: Duration,
    /// Index of the model in the workload's model list.
    pub model: usize,
    /// Index of the input in that model's pool.
    pub input: usize,
}

/// A uniform draw in `(0, 1]` from the generator's top 53 bits.
fn unit(rng: &mut XorShift) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Per-model request counts of a mix: `shares` in any positive weights,
/// each model receiving `floor(n * share / total)` requests and the
/// first model the remainder, so the counts are exact for every seed.
pub fn mix_counts(n: usize, shares: &[u32]) -> Vec<usize> {
    let total: usize = shares.iter().map(|&s| s as usize).sum();
    assert!(total > 0, "a mix needs a positive share");
    let mut counts: Vec<usize> = shares.iter().map(|&s| n * s as usize / total).collect();
    counts[0] += n - counts.iter().sum::<usize>();
    counts
}

/// `n` Poisson arrivals at `rate_per_s`, with the models of
/// [`mix_counts`] in a seeded random order and each request's input
/// drawn uniformly from its model's pool (`pools[model]` inputs).
pub fn poisson_schedule(
    seed: u64,
    rate_per_s: f64,
    n: usize,
    shares: &[u32],
    pools: &[usize],
) -> Vec<Arrival> {
    assert!(rate_per_s > 0.0, "a Poisson schedule needs a positive rate");
    assert_eq!(shares.len(), pools.len(), "one pool per model");
    let mut rng = XorShift::new(seed ^ 0x005E_ED0F_A110_CA7E);
    let mut models: Vec<usize> = mix_counts(n, shares)
        .iter()
        .enumerate()
        .flat_map(|(m, &c)| std::iter::repeat_n(m, c))
        .collect();
    for i in (1..models.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        models.swap(i, j);
    }
    let mut t = 0.0f64;
    models
        .into_iter()
        .map(|model| {
            t += -unit(&mut rng).ln() / rate_per_s;
            Arrival {
                due: Duration::from_secs_f64(t),
                model,
                input: (rng.next_u64() % pools[model] as u64) as usize,
            }
        })
        .collect()
}

/// The latency a request is charged: from when it was due, so a send
/// that went out late carries its lateness, plus the service's own
/// submit-to-completion time.
pub fn due_latency(due: Instant, sent: Instant, service: Duration) -> Duration {
    sent.saturating_duration_since(due) + service
}

/// When one request was due and when it actually went out.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub due: Instant,
    pub sent: Instant,
}

/// How long before a due time [`drive`] stops sleeping and spins: a
/// sleep overshoots by the kernel's timer slack (50 µs by default) plus
/// the wake-up latency, which would be charged to every request.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(200);

/// Sends `schedule` open-loop from `start`: waits until each request's
/// due time (never earlier), stamps the send and calls `send`. Due times
/// come only from the schedule, so a `send` that blocks delays the
/// sends behind it without moving their due times.
pub fn drive(
    schedule: &[Arrival],
    start: Instant,
    mut send: impl FnMut(usize, &Arrival),
) -> Vec<Sent> {
    schedule
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let due = start + a.due;
            let now = Instant::now();
            if due > now + SPIN_BEFORE_DUE {
                std::thread::sleep(due - now - SPIN_BEFORE_DUE);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let sent = Instant::now();
            send(i, a);
            Sent { due, sent }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_mix_replay_identically() {
        let a = poisson_schedule(7, 150.0, 2000, &[30, 50, 20], &[4, 16, 8]);
        let b = poisson_schedule(7, 150.0, 2000, &[30, 50, 20], &[4, 16, 8]);
        assert_eq!(a, b);
        let c = poisson_schedule(8, 150.0, 2000, &[30, 50, 20], &[4, 16, 8]);
        assert_ne!(a, c, "another seed gives another schedule");
        for s in [&a, &c] {
            let per_model: Vec<usize> = (0..3)
                .map(|m| s.iter().filter(|r| r.model == m).count())
                .collect();
            assert_eq!(per_model, [600, 1000, 400], "exact mix for every seed");
            assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
            assert!(s.iter().all(|r| r.input < [4, 16, 8][r.model]));
        }
        // Mean gap of the Poisson process is 1/rate (within a few % at
        // n = 2000).
        let span = a.last().unwrap().due.as_secs_f64();
        assert!((span / 2000.0 * 150.0 - 1.0).abs() < 0.08, "span {span}");
    }

    #[test]
    fn mix_counts_are_exact() {
        assert_eq!(mix_counts(10, &[30, 50, 20]), [3, 5, 2]);
        assert_eq!(mix_counts(11, &[30, 50, 20]), [4, 5, 2]);
        assert_eq!(mix_counts(0, &[1, 1]), [0, 0]);
    }

    #[test]
    fn due_time_accounting_charges_a_late_send() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(5);
        let service = Duration::from_millis(2);
        assert_eq!(due_latency(due, sent, service), Duration::from_millis(7));
        // A send can never be credited for going out early.
        assert_eq!(due_latency(sent, due, service), service);
    }

    #[test]
    fn the_fixed_rate_never_adapts_to_a_slow_send() {
        // 1 kHz for 20 requests; the first send stalls 15 ms, far past
        // the next dozen due times. An adaptive generator would push
        // them back; the open loop must keep them and charge the lag.
        let schedule = poisson_schedule(3, 1000.0, 20, &[1], &[1]);
        let start = Instant::now();
        let sent = drive(&schedule, start, |i, _| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(15));
            }
        });
        for (s, a) in sent.iter().zip(&schedule) {
            assert_eq!(
                s.due,
                start + a.due,
                "due times come from the schedule only"
            );
            assert!(s.sent >= s.due, "never sent early");
        }
        let stalled = sent
            .iter()
            .zip(&schedule)
            .skip(1)
            .filter(|(_, a)| a.due < schedule[0].due + Duration::from_millis(15));
        for (s, _) in stalled {
            assert!(s.sent > s.due, "requests behind the stall went out late");
        }
    }
}
