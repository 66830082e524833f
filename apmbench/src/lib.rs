//! # apmbench
//!
//! The repository's benchmark: how much host time and memory it takes
//! to regenerate the paper's numbers, end to end and layer by layer,
//! while checking that the simulated numbers themselves do not move.
//! `BENCHMARK.json` at the repository root is its contract; `README.md`
//! beside this crate explains the workloads, the metrics, how the
//! layers interact, and what is deliberately not measured.
//!
//! * [`workloads`] — the five workloads and one pass of each through
//!   the public entry points, with self-checks (b), (c), (d).
//! * [`traced`] — the bench-side closed loop that attributes host time
//!   to layers from outside, and self-check (a).
//! * [`spans`] — the in-memory span log.
//! * [`probes`] — fixed-iteration probes of single layers.
//! * [`catalogue`] — every metric's name, unit, direction, bound and
//!   predicted effect.
//! * [`run`] — one run of one workload (the contract's command).
//! * [`suite`] — `apmbench run`: every workload, untraced and traced,
//!   each in a fresh child process, collected into `results.json`.
//! * [`compare`] — `apmbench compare`: two `results.json` files against
//!   the benchmark's own bounds.

pub mod catalogue;
pub mod compare;
pub mod probes;
pub mod run;
pub mod spans;
pub mod suite;
pub mod traced;
pub mod workloads;

/// Median of the values (mean of the middle two for an even count); 0
/// for none. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
