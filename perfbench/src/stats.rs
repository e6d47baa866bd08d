//! Pure measurement arithmetic: order statistics, the percentile rule,
//! request success fractions, the self-time tree, and `/proc` parsing.
//! Everything here is deterministic and unit-tested.

use stca_serve::Accounting;

/// Median of a sample (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a sample; `NaN` for an empty one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The percentile ladder a timing's tail is reported on, as the share of
/// samples beyond each rung: p50, p90, p99, p99.9, p99.99.
const TAIL_BEYOND: [u64; 5] = [2, 10, 100, 1_000, 10_000];

/// The highest ladder percentile (as a fraction) that leaves at least ten
/// of `samples` beyond it, or `None` when even the median does not.
pub fn tail_percentile(samples: u64) -> Option<f64> {
    TAIL_BEYOND
        .iter()
        .take_while(|&&per| samples / per >= 10)
        .last()
        .map(|&per| 1.0 - 1.0 / per as f64)
}

/// Requests completed within their deadline across the serving loops
/// (shards) that handled a run. Shed, drained and late requests all count
/// as failures, and so do requests a fleet router shed: those never reach
/// any loop's `completed`.
pub fn ok_requests<'a>(loops: impl IntoIterator<Item = &'a Accounting>) -> u64 {
    loops
        .into_iter()
        .map(|a| a.completed - a.deadline_exceeded)
        .sum()
}

/// `ok / offered`, or `NaN` when nothing was offered.
pub fn frac(ok: u64, offered: u64) -> f64 {
    if offered == 0 {
        f64::NAN
    } else {
        ok as f64 / offered as f64
    }
}

/// Where one timed call's wall time went: measured child rows plus an
/// explicit remainder (the caller's own time, or anything unmeasured).
#[derive(Debug, Clone)]
pub struct SelfTimeTree {
    /// Name of the timed call.
    pub root: &'static str,
    /// Measured children, seconds.
    pub rows: Vec<(&'static str, f64)>,
    /// Root wall time minus the children, never negative.
    pub remainder: f64,
    /// What the rows and the remainder sum to: the wall time, or the
    /// children's sum if clock granularity put it above the wall time.
    pub total: f64,
}

impl SelfTimeTree {
    /// Attribute `wall` seconds of `root` to `rows`; the remainder row
    /// takes what is left.
    pub fn new(root: &'static str, wall: f64, rows: Vec<(&'static str, f64)>) -> SelfTimeTree {
        let children: f64 = rows.iter().map(|r| r.1).sum();
        SelfTimeTree {
            root,
            rows,
            remainder: (wall - children).max(0.0),
            total: wall.max(children),
        }
    }

    /// Share of the total taken by the row `name` (the remainder is
    /// `"remainder"`); 0 for a row the tree does not have.
    pub fn share(&self, name: &str) -> f64 {
        let secs = if name == "remainder" {
            self.remainder
        } else {
            // a fold from +0.0: an empty f64 `sum` is -0.0
            self.rows
                .iter()
                .filter(|r| r.0 == name)
                .fold(0.0, |acc, r| acc + r.1)
        };
        if self.total > 0.0 {
            secs / self.total
        } else {
            0.0
        }
    }

    /// The tree as indented text lines, remainder last.
    pub fn render(&self, remainder_name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{:<28} {:>10.4} s  100.0%\n", self.root, self.total);
        let rows = self
            .rows
            .iter()
            .copied()
            .chain(std::iter::once(("", self.remainder)));
        for (name, secs) in rows {
            let name = if name.is_empty() {
                remainder_name
            } else {
                name
            };
            let pct = if self.total > 0.0 {
                100.0 * secs / self.total
            } else {
                0.0
            };
            let _ = writeln!(out, "  {name:<26} {secs:>10.4} s {pct:>6.1}%");
        }
        out
    }
}

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(value)
}

/// This process's peak resident set, MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vmhwm_kib(&status).map(|kib| kib as f64 * 1024.0 / 1e6)
}

/// User + system CPU seconds from the text of `/proc/<pid>/stat`
/// (fields 14 and 15, in USER_HZ = 100 ticks per second, the Linux ABI
/// value).
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // the command name may hold spaces; fields resume after its ')'
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// This process's CPU seconds so far.
pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// A fixed integer + floating-point kernel owned by the benchmark; its
/// time tracks machine speed and nothing in the program. Returns the
/// median of five timings, ms.
pub fn reference_probe_ms() -> f64 {
    let mut times = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = std::time::Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0.0f64;
        for _ in 0..4_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.mul_add(0.999_999, (x >> 11) as f64 * 1e-16);
        }
        std::hint::black_box((x, acc));
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_median_handles_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
        assert_eq!(tail_percentile(10_000_000), Some(0.9999));
    }

    #[test]
    fn ok_frac_counts_shed_drained_late_and_router_shed_as_failures() {
        let a = Accounting {
            admitted: 100,
            completed: 70,
            shed_overload: 10,
            shed_deadline: 5,
            shed_failed: 5,
            drained: 10,
            blocked: 0,
            deadline_exceeded: 20,
        };
        assert!(a.balanced());
        assert_eq!(ok_requests([&a]), 50);
        assert_eq!(frac(ok_requests([&a]), a.admitted), 0.5);
        // a fleet of two such shards behind a router that shed 20 of 220
        // offered requests
        assert_eq!(frac(ok_requests([&a, &a]), 220), 100.0 / 220.0);
        assert!(frac(0, 0).is_nan());
    }

    #[test]
    fn self_time_tree_sums_to_wall_with_nonnegative_remainder() {
        let t = SelfTimeTree::new("serve", 10.0, vec![("model", 6.0), ("validation", 1.5)]);
        assert_eq!(t.remainder, 2.5);
        let sum: f64 = t.rows.iter().map(|r| r.1).sum::<f64>() + t.remainder;
        assert_eq!(sum, t.total);
        assert_eq!(t.total, 10.0);
        assert_eq!(t.share("model"), 0.6);
        assert_eq!(t.share("remainder"), 0.25);
        assert_eq!(t.share("absent").to_string(), "0");

        // children a clock tick past the wall: remainder stays at zero and
        // the rows still sum to the reported total
        let t = SelfTimeTree::new("serve", 1.0, vec![("model", 0.7), ("adapt", 0.300_001)]);
        assert_eq!(t.remainder, 0.0);
        let sum: f64 = t.rows.iter().map(|r| r.1).sum::<f64>() + t.remainder;
        assert_eq!(sum, t.total);

        let text = t.render("self");
        assert!(text
            .lines()
            .last()
            .expect("rows")
            .trim_start()
            .starts_with("self"));
    }

    #[test]
    fn vmhwm_parses_from_proc_status_text() {
        let status =
            "Name:\tstca-perfbench\nVmPeak:\t  100 kB\nVmHWM:\t   24576 kB\nVmRSS:\t 20000 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(24_576));
        assert_eq!(parse_vmhwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t x kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }

    #[test]
    fn cpu_seconds_parse_past_a_command_name_with_spaces() {
        let stat = "42 (a b) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 1 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }
}
