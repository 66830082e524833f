//! # apm-sim
//!
//! A deterministic discrete-event simulator for benchmark clusters.
//!
//! The paper measured six distributed stores on two physical clusters. We
//! replace the hardware with a simulation in which *time is virtual* but
//! *work is real*: the storage engines in `apm-storage` maintain real data
//! structures and describe the physical work of every operation (CPU time,
//! disk reads/writes, network messages) as a [`plan::Plan`]; this crate
//! executes plans against queued node resources (CPU core pools, disks,
//! NICs, RPC handler pools) and reports completion times.
//!
//! Because a closed-loop benchmark's throughput and latency are queueing
//! phenomena, executing calibrated service demands against the paper's
//! hardware shapes (Cluster M: 8 cores / 16 GB / RAID0; Cluster D: 4 cores
//! / 4 GB / 1 disk; gigabit Ethernet) reproduces the measured curves.
//!
//! Determinism: the future-event list (a calendar queue, see [`queue`])
//! breaks time ties by insertion sequence and all randomness comes from
//! seeded `SplitRng` streams upstream, so every simulation run is exactly
//! repeatable.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::wildcard_enum_match_arm))]

pub mod arena;
pub mod audit;
pub mod cluster;
pub mod disk;
pub mod fault;
pub mod kernel;
pub mod net;
pub mod plan;
pub mod queue;
pub mod time;
pub mod trace;

pub use audit::KernelAuditor;
pub use cluster::{ClusterSpec, NodeResources, NodeSpec};
pub use disk::{DiskSpec, IoPattern};
pub use fault::{FaultEvent, FaultKind, FaultSchedule, FaultWindow, WindowShape};
pub use kernel::{
    Completion, Engine, FailMode, Outcome, PlanHandle, PreparedPlan, ResourceId, Token,
};
pub use net::NetSpec;
pub use plan::{Plan, PlanBuilder};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceEventKind, Tracer};
