//! The five Table-1 workloads and the operation stream generator.
//!
//! Table 1 of the paper:
//!
//! | Workload | % Read | % Scans | % Inserts |
//! |----------|--------|---------|-----------|
//! | R        | 95     | 0       | 5         |
//! | RW       | 50     | 0       | 50        |
//! | W        | 1      | 0       | 99        |
//! | RS       | 47     | 47      | 6         |
//! | RSW      | 25     | 25      | 50        |
//!
//! §3 further fixes: scan length 50 records, all fields fetched, uniform
//! access, 10 million records loaded per server node, 600-second runs.

use crate::keyspace::{key_for_seq, scramble, KeyChooser, KeyDistribution, SplitRng};
use crate::ops::{OpKind, Operation};
use crate::record::Row;
use crate::snap_state;

/// The paper's fixed scan length (§3: "a scan-length of 50 records").
pub const SCAN_LENGTH: usize = 50;

/// An operation mix in percent. Parts must sum to 100.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpMix {
    pub read_pct: u8,
    pub scan_pct: u8,
    pub insert_pct: u8,
    pub update_pct: u8,
}

impl OpMix {
    /// Creates a mix, validating that it sums to 100 %.
    pub fn new(
        read_pct: u8,
        scan_pct: u8,
        insert_pct: u8,
        update_pct: u8,
    ) -> Result<Self, MixError> {
        let sum = read_pct as u16 + scan_pct as u16 + insert_pct as u16 + update_pct as u16;
        if sum != 100 {
            return Err(MixError { sum });
        }
        Ok(OpMix {
            read_pct,
            scan_pct,
            insert_pct,
            update_pct,
        })
    }

    /// Whether this mix contains scans (stores without scan support are
    /// excluded from such workloads, §5.4).
    pub fn has_scans(&self) -> bool {
        self.scan_pct > 0
    }

    /// Picks an operation kind from the mix given a uniform draw in [0,100).
    fn pick(&self, draw: u8) -> OpKind {
        debug_assert!(draw < 100);
        let mut d = draw;
        if d < self.read_pct {
            return OpKind::Read;
        }
        d -= self.read_pct;
        if d < self.scan_pct {
            return OpKind::Scan;
        }
        d -= self.scan_pct;
        if d < self.insert_pct {
            return OpKind::Insert;
        }
        OpKind::Update
    }
}

/// Error produced for a mix that does not sum to 100 %.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MixError {
    /// The offending sum.
    pub sum: u16,
}

impl std::fmt::Display for MixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "operation mix must sum to 100%, got {}%", self.sum)
    }
}

impl std::error::Error for MixError {}

/// A named benchmark workload: an operation mix plus key distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Short name used in figures ("R", "RW", ...).
    pub name: &'static str,
    /// Operation mix.
    pub mix: OpMix,
    /// Key distribution for reads and scan starts.
    pub distribution: KeyDistribution,
    /// Records returned per scan.
    pub scan_length: usize,
}

impl Workload {
    fn table1(name: &'static str, read: u8, scan: u8, insert: u8) -> Workload {
        Workload {
            name,
            mix: OpMix::new(read, scan, insert, 0).expect("Table-1 mixes sum to 100"),
            distribution: KeyDistribution::Uniform,
            scan_length: SCAN_LENGTH,
        }
    }

    /// Workload R: 95 % reads, 5 % inserts (web-style read-intensive).
    pub fn r() -> Workload {
        Workload::table1("R", 95, 0, 5)
    }

    /// Workload RW: 50 % reads, 50 % inserts.
    pub fn rw() -> Workload {
        Workload::table1("RW", 50, 0, 50)
    }

    /// Workload W: 1 % reads, 99 % inserts — the APM use case (§5.3).
    pub fn w() -> Workload {
        Workload::table1("W", 1, 0, 99)
    }

    /// Workload RS: 47 % reads, 47 % scans, 6 % inserts.
    pub fn rs() -> Workload {
        Workload::table1("RS", 47, 47, 6)
    }

    /// Workload RSW: 25 % reads, 25 % scans, 50 % inserts.
    pub fn rsw() -> Workload {
        Workload::table1("RSW", 25, 25, 50)
    }

    /// All five Table-1 workloads in presentation order.
    pub fn all() -> Vec<Workload> {
        vec![
            Workload::r(),
            Workload::rw(),
            Workload::w(),
            Workload::rs(),
            Workload::rsw(),
        ]
    }

    /// Looks a workload up by its Table-1 name (case-insensitive).
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all()
            .into_iter()
            .find(|w| w.name.eq_ignore_ascii_case(name))
    }
}

/// Generates the operation stream for one benchmark run.
///
/// The generator owns the shared key-space state: the number of records
/// inserted so far. All simulated clients draw from one generator (the
/// simulator is single-threaded, so no synchronisation is needed), which
/// matches YCSB's global acknowledged-insert counter.
#[derive(Clone, Debug)]
pub struct WorkloadGenerator {
    workload: Workload,
    chooser: KeyChooser,
    rng: SplitRng,
    /// Sequence number of the next insert.
    next_seq: u64,
    /// Number of records whose inserts are acknowledged (readable).
    acked: u64,
}

impl WorkloadGenerator {
    /// Creates a generator over a store pre-loaded with `initial_records`.
    pub fn new(workload: Workload, initial_records: u64, seed: u64) -> Self {
        let mut rng = SplitRng::new(seed);
        let chooser = KeyChooser::new(workload.distribution, rng.split(0xC0FFEE));
        WorkloadGenerator {
            workload,
            chooser,
            rng,
            next_seq: initial_records,
            acked: initial_records,
        }
    }

    /// The workload being generated.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Number of records the generator believes exist.
    pub fn record_count(&self) -> u64 {
        self.acked
    }

    /// Produces the next operation.
    pub fn next_op(&mut self) -> Operation {
        let draw = (self.rng.next_below(100)) as u8;
        match self.workload.mix.pick(draw) {
            OpKind::Read => {
                let seq = self.chooser.choose(self.acked);
                Operation::Read {
                    key: key_for_seq(seq),
                }
            }
            OpKind::Scan => {
                let seq = self.chooser.choose(self.acked);
                Operation::Scan {
                    start: key_for_seq(seq),
                    len: self.workload.scan_length,
                }
            }
            OpKind::Insert => {
                let seq = self.next_seq;
                self.next_seq += 1;
                Operation::Insert {
                    row: Row::Generated(scramble(seq)),
                }
            }
            OpKind::Update => {
                let seq = self.chooser.choose(self.acked);
                Operation::Update {
                    row: Row::Generated(scramble(seq)),
                }
            }
        }
    }

    /// Acknowledges an insert, making the record eligible for reads.
    ///
    /// The driver calls this when an insert completes; reads issued before
    /// the acknowledgement never target the in-flight record, which is the
    /// YCSB behaviour that keeps reads from missing.
    pub fn ack_insert(&mut self) {
        self.acked += 1;
    }
}

// RNG streams, chooser cache and sequence counters; the workload is
// config, re-derived from the run config on restore.
snap_state! { WorkloadGenerator { workload: _, chooser, rng, next_seq, acked } }

/// Returns Table 1 as (name, read %, scan %, insert %) rows — used by the
/// `repro table1` command and the documentation tests.
pub fn table1() -> [(&'static str, u8, u8, u8); 5] {
    [
        ("R", 95, 0, 5),
        ("RW", 50, 0, 50),
        ("W", 1, 0, 99),
        ("RS", 47, 47, 6),
        ("RSW", 25, 25, 50),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{SnapReader, SnapState, SnapWriter};
    use std::collections::BTreeMap;

    #[test]
    fn table1_matches_named_constructors() {
        for (name, read, scan, insert) in table1() {
            let w = Workload::by_name(name).unwrap_or_else(|| panic!("missing workload {name}"));
            assert_eq!(w.mix.read_pct, read, "{name} read%");
            assert_eq!(w.mix.scan_pct, scan, "{name} scan%");
            assert_eq!(w.mix.insert_pct, insert, "{name} insert%");
            assert_eq!(
                w.mix.update_pct, 0,
                "{name} has no updates (append-only APM data)"
            );
            assert_eq!(w.scan_length, 50, "{name} scan length (§3)");
        }
    }

    #[test]
    fn invalid_mix_is_rejected() {
        assert!(OpMix::new(50, 0, 49, 0).is_err());
        assert!(OpMix::new(50, 25, 25, 25).is_err());
        let err = OpMix::new(10, 10, 10, 10).unwrap_err();
        assert_eq!(err.sum, 40);
        assert!(err.to_string().contains("40"));
    }

    #[test]
    fn generated_mix_matches_requested_percentages() {
        for workload in Workload::all() {
            let mut generator = WorkloadGenerator::new(workload.clone(), 10_000, 99);
            let mut counts: BTreeMap<OpKind, u64> = BTreeMap::new();
            let total = 40_000u64;
            for _ in 0..total {
                let op = generator.next_op();
                if op.kind() == OpKind::Insert {
                    generator.ack_insert();
                }
                *counts.entry(op.kind()).or_default() += 1;
            }
            let pct = |k: OpKind| 100.0 * *counts.get(&k).unwrap_or(&0) as f64 / total as f64;
            assert!(
                (pct(OpKind::Read) - workload.mix.read_pct as f64).abs() < 2.0,
                "{}",
                workload.name
            );
            assert!(
                (pct(OpKind::Scan) - workload.mix.scan_pct as f64).abs() < 2.0,
                "{}",
                workload.name
            );
            assert!(
                (pct(OpKind::Insert) - workload.mix.insert_pct as f64).abs() < 2.0,
                "{}",
                workload.name
            );
        }
    }

    #[test]
    fn inserts_use_fresh_sequential_ids_and_reads_stay_behind_acks() {
        let mut generator = WorkloadGenerator::new(Workload::rw(), 100, 7);
        let mut next_expected = 100u64;
        for _ in 0..5_000 {
            match generator.next_op() {
                Operation::Insert { row } => {
                    assert_eq!(row, Row::Generated(scramble(next_expected)));
                    assert_eq!(row.key(), key_for_seq(next_expected));
                    next_expected += 1;
                    generator.ack_insert();
                }
                Operation::Read { key } | Operation::Scan { start: key, .. } => {
                    let id = key.to_id().expect("benchmark key");
                    // The read target must be one of the acked records.
                    let acked_ids: bool =
                        (0..generator.record_count()).any(|s| key_for_seq(s).to_id() == Some(id));
                    // Exhaustive check is quadratic; only sample early on.
                    if generator.record_count() <= 200 {
                        assert!(acked_ids, "read targeted unacked record");
                    }
                }
                Operation::Update { .. } => unreachable!("Table-1 workloads have no updates"),
            }
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let mut a = WorkloadGenerator::new(Workload::r(), 1_000, 5);
        let mut b = WorkloadGenerator::new(Workload::r(), 1_000, 5);
        for _ in 0..1_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn generator_state_round_trips_mid_stream() {
        for workload in [Workload::rsw(), Workload::rs()] {
            let mut live = WorkloadGenerator::new(workload.clone(), 1_000, 11);
            for _ in 0..500 {
                if live.next_op().kind() == OpKind::Insert {
                    live.ack_insert();
                }
            }
            let mut w = SnapWriter::new();
            live.snap_state(&mut w);
            let bytes = w.into_bytes();
            let mut restored = WorkloadGenerator::new(workload, 1_000, 11);
            let mut r = SnapReader::new(&bytes);
            restored.restore_state(&mut r).unwrap();
            r.finish().unwrap();
            for _ in 0..500 {
                let a = live.next_op();
                let b = restored.next_op();
                assert_eq!(a, b);
                if a.kind() == OpKind::Insert {
                    live.ack_insert();
                    restored.ack_insert();
                }
            }
        }
    }

    #[test]
    fn scan_mixes_reflect_table1() {
        assert!(Workload::rs().mix.has_scans());
        assert!(!Workload::rw().mix.has_scans());
    }
}
