//! CPU steal: the share of the machine's CPU time the hypervisor handed
//! to other guests while this one wanted to run (the `steal` column of
//! `/proc/stat`).
//!
//! On a small shared VM the host takes whole stretches of seconds away
//! from the guest: a closed loop then runs 1.2–2× slower for as long as
//! that lasts, and how much of a run it covers differs from run to run.
//! Every workload therefore cuts its run into short windows, reads the
//! steal share of each, and takes its timings from the windows the host
//! disturbed least. The selection reads only the host's counter, never
//! the program's timings, so a faster program is measured on the same
//! kind of windows as a slower one.

use std::time::Instant;

/// Cumulative steal and total CPU time over all CPUs, in clock ticks,
/// from the `cpu` line of `/proc/stat`; `None` where it is unreadable.
fn cpu_ticks() -> Option<(u64, u64)> {
    parse_cpu_line(std::fs::read_to_string("/proc/stat").ok()?.lines().next()?)
}

/// `(steal, total)` of a `/proc/stat` `cpu` line: user, nice, system,
/// idle, iowait, irq, softirq, steal, then the guest columns, which the
/// kernel already counts inside user and nice.
fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let ticks: Vec<u64> = fields
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// How a workload picks its quiet windows.
#[derive(Debug, Clone, Copy)]
pub struct Quiet {
    /// Shortest window, in seconds.
    pub window_s: f64,
    /// Least share of the windows kept.
    pub share: f64,
    /// Least number of requests in the kept windows: enough for the
    /// workload's tail percentile.
    pub samples: usize,
}

/// One window of a run: requests `start..end` (indices in send order),
/// how long it lasted and the share of all CPU time stolen during it
/// (`None` without `/proc/stat`).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: usize,
    pub end: usize,
    pub secs: f64,
    pub steal: Option<f64>,
}

/// Cuts a run into consecutive windows of whole requests, each at least
/// `min_secs` long.
#[derive(Debug)]
pub struct Windows {
    min_secs: f64,
    opened: Instant,
    first: usize,
    ticks: Option<(u64, u64)>,
    closed: Vec<Window>,
}

impl Windows {
    /// Opens the first window at `now`, before request 0.
    pub fn start(min_secs: f64, now: Instant) -> Self {
        Windows {
            min_secs,
            opened: now,
            first: 0,
            ticks: cpu_ticks(),
            closed: Vec::new(),
        }
    }

    /// Called after each request is done (closed loop) or sent (open
    /// loop), with the number of requests so far; closes the open window
    /// once it is `min_secs` old. A window still open at the end of the
    /// run is dropped.
    pub fn after(&mut self, done: usize, now: Instant) {
        let secs = (now - self.opened).as_secs_f64();
        if secs < self.min_secs {
            return;
        }
        let ticks = cpu_ticks();
        let steal = match (self.ticks, ticks) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                Some(s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
            }
            (Some(_), Some(_)) => Some(0.0),
            _ => None,
        };
        self.closed.push(Window {
            start: self.first,
            end: done,
            secs,
            steal,
        });
        self.opened = now;
        self.first = done;
        self.ticks = ticks;
    }

    /// Ends the run after `done` requests at `now`: the closed windows,
    /// or, when the run was too short to close one, a single window over
    /// all of it.
    pub fn finish(mut self, done: usize, now: Instant) -> Vec<Window> {
        if self.closed.is_empty() && done > 0 {
            self.min_secs = 0.0;
            self.after(done, now);
        }
        self.closed
    }
}

/// The quiet windows, in time order: taken by rising steal until they
/// are at least `q.share` of the windows and hold at least `q.samples`
/// requests, together with every other window stolen no more than the
/// last one taken (so all windows without steal are kept when there are
/// more of them). All windows when any has no steal reading.
pub fn least_stolen(windows: &[Window], q: &Quiet) -> Vec<Window> {
    if windows.iter().any(|w| w.steal.is_none()) {
        return windows.to_vec();
    }
    let steal = |w: &Window| w.steal.unwrap_or(0.0);
    let mut rising: Vec<&Window> = windows.iter().collect();
    rising.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    let need = (windows.len() as f64 * q.share).ceil() as usize;
    let mut held = 0;
    let mut limit = None;
    for (k, w) in rising.into_iter().enumerate() {
        if k >= need && held >= q.samples {
            break;
        }
        held += w.end - w.start;
        limit = Some(steal(w));
    }
    limit.map_or_else(Vec::new, |l| {
        windows.iter().filter(|w| steal(w) <= l).copied().collect()
    })
}

/// The run-record line on the selection: how many windows were kept and
/// the mean steal share of the kept and of all windows.
pub fn note(all: &[Window], quiet: &[Window], q: &Quiet) -> String {
    let steal = |ws: &[Window]| -> String {
        ws.iter()
            .map(|w| w.steal)
            .sum::<Option<f64>>()
            .map_or("unknown".into(), |s| format!("{:.4}", s / ws.len() as f64))
    };
    format!(
        "{} of {} windows of >= {} s, the least stolen (at least {} of them and {} requests); mean steal {} (all windows {})",
        quiet.len(),
        all.len(),
        q.window_s,
        q.share,
        q.samples,
        steal(quiet),
        steal(all)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(start: usize, steal: Option<f64>) -> Window {
        Window {
            start: 10 * start,
            end: 10 * start + 10,
            secs: 0.2,
            steal,
        }
    }

    #[test]
    fn parses_the_cpu_line() {
        let line = "cpu  864140 0 264080 1426162 851 0 757 62336 0 0";
        assert_eq!(
            parse_cpu_line(line),
            Some((62336, 864140 + 264080 + 1426162 + 851 + 757 + 62336))
        );
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8 0 0"), None);
        assert_eq!(parse_cpu_line("cpu 1 2 3"), None);
    }

    #[test]
    fn keeps_the_least_stolen_windows_in_time_order() {
        let ws = [
            w(0, Some(0.3)),
            w(1, Some(0.0)),
            w(2, Some(0.1)),
            w(3, Some(0.0)),
            w(4, Some(0.2)),
            w(5, Some(0.1)),
        ];
        let picked = |share, samples| {
            least_stolen(
                &ws,
                &Quiet {
                    window_s: 0.2,
                    share,
                    samples,
                },
            )
            .iter()
            .map(|w| w.start / 10)
            .collect::<Vec<_>>()
        };
        assert_eq!(picked(0.3, 0), [1, 3]);
        // Both windows without steal are kept, though one would do.
        assert_eq!(picked(0.01, 0), [1, 3]);
        // A third window is needed; the other one as stolen comes too.
        assert_eq!(picked(0.5, 0), [1, 2, 3, 5]);
        assert_eq!(picked(0.01, 21), [1, 2, 3, 5]);
        assert_eq!(picked(0.01, 20), [1, 3]);
        assert_eq!(picked(1.0, 0), [0, 1, 2, 3, 4, 5]);
        assert_eq!(picked(0.01, 1000), [0, 1, 2, 3, 4, 5]);
        let q = Quiet {
            window_s: 0.2,
            share: 0.5,
            samples: 0,
        };
        assert!(least_stolen(&[], &q).is_empty());
        // Without a steal reading nothing can be ranked: keep every window.
        let blind = [w(0, None), w(1, Some(0.0))];
        assert_eq!(least_stolen(&blind, &q).len(), 2);
    }

    #[test]
    fn windows_close_after_their_minimum_length() {
        let t0 = Instant::now();
        let mut ws = Windows::start(0.5, t0);
        ws.after(1, t0 + std::time::Duration::from_millis(200));
        ws.after(3, t0 + std::time::Duration::from_millis(600));
        ws.after(4, t0 + std::time::Duration::from_millis(900));
        // The window still open at the end (request 3..5) is dropped.
        let all = ws.finish(5, t0 + std::time::Duration::from_secs(1));
        assert_eq!(all.len(), 1);
        assert_eq!((all[0].start, all[0].end), (0, 3));
        assert!((all[0].secs - 0.6).abs() < 1e-9);
        let short = Windows::start(0.5, t0).finish(2, t0 + std::time::Duration::from_millis(100));
        assert_eq!((short.len(), short[0].start, short[0].end), (1, 0, 2));
    }
}
