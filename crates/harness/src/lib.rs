//! # apm-harness
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§5) against the simulated stores.
//!
//! * [`experiment`] — one benchmark *point* as plain data (`Scenario`:
//!   store × cluster × nodes × workload, plus the `RunConfig` it runs)
//!   and the store factory; every simulated run in this crate is one.
//! * [`figures`] — the paper's artifacts (Fig 3–20 plus Table 1) as one
//!   table of `(sweep, metric)` projections, each yielding an
//!   [`apm_core::report::Table`] with the same rows and series the paper
//!   plots; figures that share a sweep are simulated once per request.
//! * [`mod@reference`] — the paper's reported numbers (digitized from the
//!   text and figures) for paper-vs-measured comparison.
//! * [`shape`] — qualitative assertions ("Cassandra scales linearly",
//!   "VoltDB declines past one node") used by the integration tests and
//!   the EXPERIMENTS.md generator.
//! * [`extensions`] — the paper's §8 future-work items (replication,
//!   compression) and two §6-motivated ablations (token assignment, key
//!   skew), implemented as additional experiments.
//! * [`resilience`] — the client-side policy experiments: the fault
//!   schedules replayed with retries, hedged reads, circuit breakers and
//!   admission control switched on, policy-on vs policy-off per table.
//! * [`obs`] — the observability experiments: virtual-time profiling
//!   (queue-wait vs. service per resource class) and the windowed
//!   telemetry timeline, plus the Chrome trace exporter (`repro trace`).
//! * [`snap`] — checkpoint/resume equivalence and divergence bisection:
//!   sealed mid-run snapshots, byte-identical resumption, and binary
//!   search over checkpoint streams to localize a divergence
//!   (`repro snapshot | resume | bisect`).
//! * [`chaos`] — deterministic chaos search: seeded fault-schedule
//!   generation, correctness oracles (durability, conservation,
//!   availability, recovery-convergence), and a delta-debugging
//!   shrinker whose probes resume from `snap` checkpoints
//!   (`repro chaos`).
//! * [`output`] — result persistence (JSON/CSV) and report rendering.
//!
//! The `repro` binary drives it all:
//!
//! ```text
//! repro fig3                   # one figure
//! repro all --out results/     # everything, writes EXPERIMENTS data
//! repro table1                 # print the workload table
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::wildcard_enum_match_arm))]

pub mod chaos;
pub mod experiment;
pub mod extensions;
pub mod faults;
pub mod figures;
pub mod obs;
pub mod output;
pub mod reference;
pub mod resilience;
pub mod shape;
pub mod snap;

/// The repository's JSON codec, under the path `apmbench` imports it by.
pub use apm_core::json;
pub use experiment::{ExperimentProfile, StoreKind};
pub use figures::{all_figures, figure_by_id, FigureSpec};

#[cfg(test)]
mod tests {
    /// Only type-checks while `apm_harness::json` and `apm_core::json`
    /// name one type: the re-export must not become a copy.
    #[test]
    fn json_is_the_core_codec_re_exported() {
        let _: apm_core::json::Json = crate::json::Json::Null;
    }
}
