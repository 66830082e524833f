//! The paper's reported numbers, for paper-vs-measured tables.
//!
//! Values quoted in the text (§5) are exact as printed; values read off
//! the figures are approximate (log-scale plots) and marked as such.
//! EXPERIMENTS.md is generated from these plus the measured tables.

/// How a reference value was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Stated numerically in the paper's text.
    Text,
    /// Read off a (log-scale) figure: ±50 % is a faithful read.
    Figure,
}

/// One reference value: figure id, column (store), row (nodes/workload/
/// load %), the paper's value, and where it came from.
#[derive(Clone, Copy, Debug)]
pub struct RefPoint {
    pub figure: &'static str,
    pub store: &'static str,
    pub row: &'static str,
    pub value: f64,
    pub provenance: Provenance,
    /// The sentence or figure the value comes from.
    pub source: &'static str,
}

/// All digitized reference points.
pub fn reference_points() -> Vec<RefPoint> {
    use Provenance::{Figure, Text};
    let p = |figure, store, row, value, provenance, source| RefPoint {
        figure,
        store,
        row,
        value,
        provenance,
        source,
    };
    vec![
        // ---- Figure 3: throughput, Workload R (ops/s).
        p(
            "fig3",
            "redis",
            "1",
            52_000.0,
            Text,
            "§5.1: Redis has the highest throughput (more than 50K ops/sec)",
        ),
        p(
            "fig3",
            "voltdb",
            "1",
            45_000.0,
            Figure,
            "§5.1: followed by VoltDB",
        ),
        p(
            "fig3",
            "cassandra",
            "1",
            25_000.0,
            Text,
            "§5.1: about half that of Redis (25K ops/sec)",
        ),
        p(
            "fig3",
            "mysql",
            "1",
            25_000.0,
            Text,
            "§5.1: no significant differences between Cassandra and MySQL",
        ),
        p(
            "fig3",
            "voldemort",
            "1",
            12_000.0,
            Text,
            "§5.1: Voldemort is 2 times slower than Cassandra (with 12K ops/sec)",
        ),
        p(
            "fig3",
            "hbase",
            "1",
            2_500.0,
            Text,
            "§5.1: the slowest system ... is HBase with 2.5K operations per second",
        ),
        p(
            "fig3",
            "cassandra",
            "12",
            180_000.0,
            Figure,
            "Fig 3 top-right point",
        ),
        p(
            "fig3",
            "hbase",
            "12",
            30_000.0,
            Figure,
            "Fig 3: HBase linear from 2.5K",
        ),
        p(
            "fig3",
            "voldemort",
            "12",
            140_000.0,
            Figure,
            "Fig 3: linear from 12K",
        ),
        // ---- Figure 4: read latency, Workload R (ms).
        p(
            "fig4",
            "voldemort",
            "1",
            0.23,
            Text,
            "§5.1: lowest latency of 230 µs for one node",
        ),
        p(
            "fig4",
            "voldemort",
            "12",
            0.26,
            Text,
            "§5.1: 260 µs for 12 nodes",
        ),
        p(
            "fig4",
            "cassandra",
            "4",
            6.5,
            Text,
            "§5.1: Cassandra has a higher average latency of 5 - 8 ms",
        ),
        p(
            "fig4",
            "hbase",
            "4",
            70.0,
            Text,
            "§5.1: HBase has a much higher latency of 50 - 90 ms",
        ),
        p(
            "fig4",
            "redis",
            "1",
            1.0,
            Figure,
            "Fig 4: Redis best latency among all systems",
        ),
        // ---- Figure 5: write latency, Workload R (ms).
        p(
            "fig5",
            "hbase",
            "4",
            0.15,
            Figure,
            "Fig 5: HBase lowest write latency, unstable",
        ),
        p(
            "fig5",
            "cassandra",
            "4",
            12.0,
            Figure,
            "Fig 5: Cassandra highest stable write latency",
        ),
        p(
            "fig5",
            "voldemort",
            "1",
            0.25,
            Text,
            "§5.1: roughly the same write as read latency",
        ),
        // ---- Figure 6: throughput RW.
        p(
            "fig6",
            "voltdb",
            "1",
            50_000.0,
            Text,
            "§5.2: VoltDB achieves the highest throughput [for one node]",
        ),
        p(
            "fig6",
            "cassandra",
            "12",
            200_000.0,
            Figure,
            "Fig 6 top-right",
        ),
        // ---- Figure 9: throughput W.
        p(
            "fig9",
            "cassandra",
            "12",
            190_000.0,
            Figure,
            "Fig 9 top-right; §5.3: +2% vs RW at 12 nodes",
        ),
        p(
            "fig9",
            "hbase",
            "12",
            60_000.0,
            Figure,
            "§5.3: HBase's throughput increases almost by a factor of 2",
        ),
        // ---- Figure 10: read latency W.
        p(
            "fig10",
            "hbase",
            "12",
            1_000.0,
            Text,
            "§5.3: for 12 nodes, it goes up to 1 second on average",
        ),
        // ---- Figure 12/13: RS.
        p(
            "fig12",
            "mysql",
            "1",
            30_000.0,
            Figure,
            "§5.4: MySQL has the best throughput for a single node",
        ),
        p(
            "fig13",
            "cassandra",
            "4",
            22.0,
            Text,
            "§5.4: Cassandra's scans ... in the range of 20-25 milliseconds",
        ),
        p(
            "fig13",
            "redis",
            "4",
            6.0,
            Text,
            "§5.4: Redis ... latency in the range of 4-8 milliseconds",
        ),
        p(
            "fig13",
            "hbase",
            "4",
            900.0,
            Text,
            "§5.4: HBase's latency is almost in the second range",
        ),
        // ---- Figure 14: RSW.
        p(
            "fig14",
            "mysql",
            "1",
            20.0,
            Text,
            "§5.5: MySQL's throughput is as low as 20 operations per second for one node",
        ),
        p(
            "fig14",
            "mysql",
            "4",
            1.0,
            Text,
            "§5.5: below one operation per second for four and more nodes",
        ),
        // ---- Figure 17: disk usage per node for 10M records (GB),
        // reported as totals at 12 nodes in our table.
        p(
            "fig17",
            "cassandra",
            "12",
            30.0,
            Text,
            "§5.7: 2.5 GB/node × 12",
        ),
        p("fig17", "mysql", "12", 60.0, Text, "§5.7: 5 GB/node × 12"),
        p(
            "fig17",
            "voldemort",
            "12",
            66.0,
            Text,
            "§5.7: 5.5 GB/node × 12",
        ),
        p("fig17", "hbase", "12", 90.0, Text, "§5.7: 7.5 GB/node × 12"),
        p(
            "fig17",
            "raw",
            "12",
            8.4,
            Text,
            "§5.7: 8.4 GB raw for 12 nodes",
        ),
        // ---- Figures 18–20: Cluster D (8 nodes).
        p(
            "fig18",
            "cassandra",
            "R",
            1_500.0,
            Figure,
            "Fig 18: R is 26× below W (§5.8)",
        ),
        p(
            "fig18",
            "cassandra",
            "W",
            40_000.0,
            Figure,
            "§5.8: increases by a factor of 26 from R to W",
        ),
        p(
            "fig18",
            "hbase",
            "W",
            8_000.0,
            Figure,
            "§5.8: benefits by factor of 15",
        ),
        p(
            "fig18",
            "voldemort",
            "W",
            3_000.0,
            Figure,
            "§5.8: increases only by a factor of 3",
        ),
        p(
            "fig19",
            "cassandra",
            "R",
            40.0,
            Text,
            "§5.8: Cassandra has a read latency of 40 ms for R and RW",
        ),
        p(
            "fig19",
            "cassandra",
            "W",
            25.0,
            Text,
            "§5.8: for workload W the latency is 25 ms",
        ),
        p(
            "fig19",
            "voldemort",
            "R",
            5.0,
            Text,
            "§5.8: Voldemort has by far the best latency ... 5 and 6 ms",
        ),
        p(
            "fig19",
            "hbase",
            "W",
            200.0,
            Text,
            "§5.8: for Workload W it is worst with over 200 ms",
        ),
        p(
            "fig20",
            "hbase",
            "R",
            0.5,
            Text,
            "§5.8: HBase has a very low latency, well below 1 ms",
        ),
    ]
}

/// Reference points for one figure.
pub fn for_figure(figure: &str) -> Vec<RefPoint> {
    reference_points()
        .into_iter()
        .filter(|r| r.figure == figure)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reference_point_names_a_known_figure() {
        for point in reference_points() {
            assert!(
                crate::figures::artifact(point.figure).is_some(),
                "unknown figure {}",
                point.figure
            );
        }
    }

    #[test]
    fn headline_numbers_are_present() {
        let fig3 = for_figure("fig3");
        assert!(fig3
            .iter()
            .any(|p| p.store == "redis" && p.value > 50_000.0));
        assert!(fig3
            .iter()
            .any(|p| p.store == "hbase" && p.value == 2_500.0));
        assert!(!for_figure("fig14").is_empty());
        assert!(for_figure("fig1").is_empty());
    }

    #[test]
    fn text_points_quote_the_paper() {
        for point in reference_points() {
            if point.provenance == Provenance::Text {
                assert!(
                    point.source.contains('§'),
                    "text point without citation: {point:?}"
                );
            }
        }
    }
}
