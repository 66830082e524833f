//! Hierarchical metric naming and the agent reporting model.
//!
//! Section 1 of the paper motivates the data volume with a concrete
//! customer scenario: *"The customer's data center has 10K nodes, in which
//! each node can report up to 50K metrics with an average of 10K metrics
//! ... with a modest monitoring interval of 10 seconds, 10 million
//! individual measurements are reported per second."*
//!
//! This module models that scenario: a monitored data centre is a set of
//! hosts, each running an agent that reports a fixed set of hierarchical
//! metrics (`Host/Agent/Component/Metric`) every interval. It is used by
//! the `apm_ingest` example and the capacity-planning experiment, which
//! check the paper's closing claim that 12 storage nodes must sustain ~240K
//! inserts/s for a 240-node monitored system.

use crate::record::ApmMeasurement;

/// Categories of metrics an APM agent reports (§1: "an individual metric
/// for response time, failure rate, resource utilization, etc.").
pub const METRIC_KINDS: &[&str] = &[
    "AverageResponseTime",
    "ResponsesPerInterval",
    "ErrorsPerInterval",
    "StalledTransactions",
    "ConcurrentInvocations",
    "CpuUtilization",
    "HeapUsedBytes",
    "GcPauseMillis",
    "OpenConnections",
    "QueueDepth",
];

/// Components instrumented inside a monitored application (§2: "most
/// notably ... communication methods such as RMI calls, Web service calls,
/// socket connections").
pub const COMPONENT_KINDS: &[&str] = &[
    "Servlet",
    "EjbSession",
    "JdbcQuery",
    "RmiCall",
    "WebService",
    "SocketWrite",
    "MessageQueue",
    "Backend",
];

/// Static description of a monitored data centre.
#[derive(Clone, Debug, PartialEq)]
pub struct MonitoredSystem {
    /// Number of monitored hosts.
    pub hosts: u32,
    /// Metrics reported per host per interval (paper average: 10_000).
    pub metrics_per_host: u32,
    /// Agent aggregation/reporting interval in seconds (paper: 10 s).
    pub interval_secs: u32,
}

impl MonitoredSystem {
    /// The paper's motivating scenario: 10K nodes × 10K metrics @ 10 s.
    pub fn paper_scenario() -> Self {
        MonitoredSystem {
            hosts: 10_000,
            metrics_per_host: 10_000,
            interval_secs: 10,
        }
    }

    /// The paper's closing capacity estimate: 240 monitored nodes served
    /// by 12 storage nodes (5 % overhead budget), 10K metrics @ 10 s.
    pub fn conclusion_scenario() -> Self {
        MonitoredSystem {
            hosts: 240,
            metrics_per_host: 10_000,
            interval_secs: 10,
        }
    }

    /// Sustained insert rate the storage tier must absorb (measurements/s).
    pub fn inserts_per_second(&self) -> u64 {
        u64::from(self.hosts) * u64::from(self.metrics_per_host)
            / u64::from(self.interval_secs.max(1))
    }

    /// Raw data volume produced per day, in bytes (75-byte records).
    pub fn raw_bytes_per_day(&self) -> u64 {
        self.inserts_per_second() * 86_400 * crate::record::RAW_RECORD_SIZE as u64
    }

    /// Total distinct metric name series in the system.
    pub fn series_count(&self) -> u64 {
        u64::from(self.hosts) * u64::from(self.metrics_per_host)
    }
}

/// Generates the hierarchical name of the `index`-th metric on `host`.
///
/// Names follow the Figure-2 convention `HostNNN/AgentN/ComponentNNN/Kind`.
pub fn metric_name(host: u32, index: u32) -> String {
    let agent = index % 4;
    let kind = METRIC_KINDS[(index as usize) % METRIC_KINDS.len()];
    let component_kind =
        COMPONENT_KINDS[(index as usize / METRIC_KINDS.len()) % COMPONENT_KINDS.len()];
    let component = index / (METRIC_KINDS.len() * COMPONENT_KINDS.len()) as u32;
    format!("Host{host:05}/Agent{agent}/{component_kind}{component:04}/{kind}")
}

/// A deterministic stream of agent reports.
///
/// Every call to [`AgentReporter::next_batch`] advances virtual wall time
/// by one interval and produces one [`ApmMeasurement`] per configured
/// metric, with plausible value dynamics (a random walk per series).
#[derive(Clone, Debug)]
pub struct AgentReporter {
    host: u32,
    metrics: u32,
    interval_secs: u32,
    timestamp: u64,
    walk_state: u64,
}

impl AgentReporter {
    /// Creates a reporter for `host` publishing `metrics` series starting
    /// at UNIX time `start_ts`.
    pub fn new(host: u32, metrics: u32, interval_secs: u32, start_ts: u64) -> Self {
        AgentReporter {
            host,
            metrics,
            interval_secs,
            timestamp: start_ts,
            walk_state: (u64::from(host) << 32) | 0xA5A5_5A5A,
        }
    }

    fn next_noise(&mut self) -> u64 {
        // xorshift64* keeps value dynamics deterministic per host.
        self.walk_state ^= self.walk_state << 13;
        self.walk_state ^= self.walk_state >> 7;
        self.walk_state ^= self.walk_state << 17;
        self.walk_state
    }

    /// Produces the next reporting interval's batch of measurements.
    pub fn next_batch(&mut self) -> Vec<ApmMeasurement> {
        let ts = self.timestamp;
        self.timestamp += u64::from(self.interval_secs);
        (0..self.metrics)
            .map(|i| {
                let noise = self.next_noise();
                let value = (noise % 97) as i64 + 1;
                let spread = (noise >> 8) % 7;
                ApmMeasurement {
                    metric: metric_name(self.host, i),
                    value,
                    min: (value - spread as i64).max(0),
                    max: value + spread as i64,
                    timestamp: ts,
                    duration: self.interval_secs,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_reports_10m_inserts_per_second() {
        // §1: "10 million individual measurements are reported per second".
        assert_eq!(
            MonitoredSystem::paper_scenario().inserts_per_second(),
            10_000_000
        );
    }

    #[test]
    fn conclusion_scenario_reports_240k_inserts_per_second() {
        // §8: "the total number of inserts per second is 240K".
        assert_eq!(
            MonitoredSystem::conclusion_scenario().inserts_per_second(),
            240_000
        );
    }

    #[test]
    fn raw_volume_uses_75_byte_records() {
        let s = MonitoredSystem {
            hosts: 1,
            metrics_per_host: 10,
            interval_secs: 10,
        };
        assert_eq!(s.inserts_per_second(), 1);
        assert_eq!(s.raw_bytes_per_day(), 86_400 * 75);
    }

    #[test]
    fn metric_names_follow_figure2_shape() {
        let name = metric_name(3, 0);
        assert!(name.starts_with("Host00003/Agent0/"));
        assert!(name.ends_with("/AverageResponseTime"));
        assert_eq!(name.split('/').count(), 4);
    }

    #[test]
    fn metric_names_are_unique_per_host() {
        let names: std::collections::BTreeSet<_> = (0..1000).map(|i| metric_name(1, i)).collect();
        assert_eq!(names.len(), 1000);
    }

    #[test]
    fn reporter_batches_advance_time_and_are_deterministic() {
        let mut a = AgentReporter::new(7, 5, 10, 1_000);
        let mut b = AgentReporter::new(7, 5, 10, 1_000);
        let batch_a = a.next_batch();
        let batch_b = b.next_batch();
        assert_eq!(batch_a, batch_b);
        assert_eq!(batch_a.len(), 5);
        assert!(batch_a
            .iter()
            .all(|m| m.timestamp == 1_000 && m.duration == 10));
        let second = a.next_batch();
        assert!(second.iter().all(|m| m.timestamp == 1_010));
    }

    #[test]
    fn measurements_keep_min_le_value_le_max() {
        let mut r = AgentReporter::new(1, 100, 10, 0);
        for m in r.next_batch() {
            assert!(m.min <= m.value && m.value <= m.max, "violated by {m:?}");
        }
    }
}
