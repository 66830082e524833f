//! Closed-loop client population model.
//!
//! §3 of the paper: *"Our workloads were generated using 128 connections
//! per server node, i.e., 8 connections per core in Cluster M. In Cluster
//! D, we reduced the number of connection to 2 per core ... we scaled the
//! number of threads from 128 for one node up to 1536 for 12 nodes, all of
//! them working as intensively as possible."*
//!
//! Each connection is a closed-loop client: it issues one operation, waits
//! for the response, then immediately issues the next (maximum-throughput
//! mode) or waits until its next scheduled issue time (bounded-throughput
//! mode, used for the §5.6 experiment). With closed loops, Little's law
//! ties concurrency, throughput and latency: `latency ≈ clients /
//! throughput` at saturation — the reason the paper's latencies are "much
//! higher than in previously published measurements" (§8).

/// How fast the client population issues operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Throttle {
    /// Issue as fast as responses return (maximum sustainable throughput).
    Unlimited,
    /// Target a fixed aggregate rate in operations per second, spread
    /// evenly over the clients (§5.6 bounded-throughput experiment).
    TargetOps(f64),
}

/// Description of the client population for one run.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientConfig {
    /// Total number of closed-loop clients (connections).
    pub connections: u32,
    /// Throughput limit.
    pub throttle: Throttle,
    /// Benchmark warm-up, excluded from statistics, in simulated seconds.
    pub warmup_secs: f64,
    /// Measurement window in simulated seconds (paper: 600 s; scaled runs
    /// use less — see DESIGN.md §1 "Scale factor").
    pub measure_secs: f64,
}

impl ClientConfig {
    /// The paper's Cluster-M population: 128 connections per server node,
    /// unlimited rate.
    pub fn cluster_m(server_nodes: u32) -> Self {
        ClientConfig {
            connections: 128 * server_nodes,
            throttle: Throttle::Unlimited,
            warmup_secs: 2.0,
            measure_secs: 30.0,
        }
    }

    /// The paper's Cluster-D population: 2 connections per core × 4 cores.
    pub fn cluster_d(server_nodes: u32) -> Self {
        ClientConfig {
            connections: 8 * server_nodes,
            throttle: Throttle::Unlimited,
            warmup_secs: 2.0,
            measure_secs: 30.0,
        }
    }

    /// Replaces the throttle.
    pub fn with_throttle(mut self, throttle: Throttle) -> Self {
        self.throttle = throttle;
        self
    }

    /// Scales the measurement window (used by fast test/bench profiles).
    pub fn with_window(mut self, warmup_secs: f64, measure_secs: f64) -> Self {
        self.warmup_secs = warmup_secs;
        self.measure_secs = measure_secs;
        self
    }

    /// Per-client issue interval in seconds under the current throttle
    /// (`None` when unlimited).
    pub fn issue_interval_secs(&self) -> Option<f64> {
        match self.throttle {
            Throttle::Unlimited => None,
            Throttle::TargetOps(rate) => {
                assert!(rate > 0.0, "target rate must be positive");
                Some(self.connections as f64 / rate)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_m_uses_128_connections_per_node() {
        // §3: "128 connections per server node ... up to 1536 for 12 nodes".
        assert_eq!(ClientConfig::cluster_m(1).connections, 128);
        assert_eq!(ClientConfig::cluster_m(12).connections, 1536);
    }

    #[test]
    fn cluster_d_uses_2_connections_per_core() {
        // Cluster D nodes have 2×dual-core CPUs = 4 cores; 2/core = 8/node.
        assert_eq!(ClientConfig::cluster_d(8).connections, 64);
    }

    #[test]
    fn issue_interval_matches_target_rate() {
        let cfg = ClientConfig::cluster_m(1).with_throttle(Throttle::TargetOps(1_000.0));
        // 128 clients at 1000 ops/s aggregate → one op per client every 0.128 s.
        assert!((cfg.issue_interval_secs().unwrap() - 0.128).abs() < 1e-12);
        assert!(ClientConfig::cluster_m(1).issue_interval_secs().is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_target_rate_is_rejected() {
        let _ = ClientConfig::cluster_m(1)
            .with_throttle(Throttle::TargetOps(0.0))
            .issue_interval_secs();
    }
}
