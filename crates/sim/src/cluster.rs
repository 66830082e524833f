//! Cluster hardware descriptions (§3 of the paper) and per-node resource
//! instantiation.
//!
//! > "Cluster M consists of 16 Linux nodes. Each node has two Intel Xeon
//! > quad core CPUs, 16 GB of RAM, and two 74 GB disks configured in
//! > RAID 0 ... Cluster D consists of a 24 Linux nodes, in which each node
//! > has two Intel Xeon dual core CPUs, 4 GB of RAM and a single 74 GB
//! > disk. The nodes are connected with a gigabit ethernet network over a
//! > single switch."

use crate::disk::DiskSpec;
use crate::kernel::{Engine, ResourceId};
use crate::net::NetSpec;

/// Hardware of a single server node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeSpec {
    /// CPU cores (Cluster M: 2×4, Cluster D: 2×2).
    pub cores: u32,
    /// Main memory in bytes.
    pub ram_bytes: u64,
    /// Number of data spindles (RAID 0 members count individually).
    pub spindles: u32,
    /// Per-spindle characteristics.
    pub disk: DiskSpec,
}

/// A benchmark cluster: identical nodes plus an interconnect.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterSpec {
    /// "M" or "D".
    pub name: &'static str,
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Interconnect.
    pub net: NetSpec,
    /// Physical node count available (M: 16, D: 24); experiments use up
    /// to 12 server nodes, the rest drive the workload (§3).
    pub max_nodes: u32,
}

impl ClusterSpec {
    /// Cluster M — the memory-bound cluster.
    pub fn cluster_m() -> ClusterSpec {
        ClusterSpec {
            name: "M",
            node: NodeSpec {
                cores: 8,
                ram_bytes: 16 * (1 << 30),
                spindles: 2,
                disk: DiskSpec::sata_2012(),
            },
            net: NetSpec::gigabit_2012(),
            max_nodes: 16,
        }
    }

    /// Cluster D — the disk-bound cluster.
    pub fn cluster_d() -> ClusterSpec {
        ClusterSpec {
            name: "D",
            node: NodeSpec {
                cores: 4,
                ram_bytes: 4 * (1 << 30),
                spindles: 1,
                disk: DiskSpec::sata_2012(),
            },
            net: NetSpec::gigabit_2012(),
            max_nodes: 24,
        }
    }

    /// Registers the base resources (CPU pool, disk, NIC) for `n` server
    /// nodes with the engine and returns per-node handles.
    ///
    /// # Panics
    /// Panics if `n` is zero or exceeds the cluster's physical size.
    pub fn instantiate(&self, engine: &mut Engine, n: u32) -> Vec<NodeResources> {
        assert!(n > 0, "cluster needs at least one node");
        assert!(
            n <= self.max_nodes,
            "cluster {} has only {} nodes",
            self.name,
            self.max_nodes
        );
        (0..n as usize)
            .map(|i| self.instantiate_node(engine, i))
            .collect()
    }

    /// Registers server node `i`'s CPU pool, disk and NIC — in that
    /// order, as `node{i}.cpu` / `.disk` / `.nic` — and returns their
    /// handles. [`ClusterSpec::instantiate`] registers the initial nodes
    /// through it, and a store growing its cluster mid-run (Cassandra's
    /// bootstrap) registers each newcomer the same way.
    pub fn instantiate_node(&self, engine: &mut Engine, i: usize) -> NodeResources {
        NodeResources {
            cpu: engine.add_resource(format!("node{i}.cpu"), self.node.cores),
            disk: engine.add_resource(format!("node{i}.disk"), self.node.spindles),
            nic: engine.add_resource(format!("node{i}.nic"), 1),
        }
    }
}

/// Kernel resource handles for one instantiated node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeResources {
    /// CPU core pool (capacity = cores).
    pub cpu: ResourceId,
    /// Disk (capacity = spindles; RAID 0 stripes requests).
    pub disk: ResourceId,
    /// Network interface (capacity 1).
    pub nic: ResourceId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_m_matches_paper_hardware() {
        let m = ClusterSpec::cluster_m();
        assert_eq!(m.node.cores, 8, "two quad-core Xeons");
        assert_eq!(m.node.ram_bytes, 16 << 30, "16 GB RAM");
        assert_eq!(m.node.spindles, 2, "two disks in RAID 0");
        assert_eq!(m.max_nodes, 16);
    }

    #[test]
    fn cluster_d_matches_paper_hardware() {
        let d = ClusterSpec::cluster_d();
        assert_eq!(d.node.cores, 4, "two dual-core Xeons");
        assert_eq!(d.node.ram_bytes, 4 << 30, "4 GB RAM");
        assert_eq!(d.node.spindles, 1, "a single 74 GB disk");
        assert_eq!(d.max_nodes, 24);
    }

    #[test]
    fn instantiate_creates_three_resources_per_node() {
        let mut engine = Engine::new();
        let nodes = ClusterSpec::cluster_m().instantiate(&mut engine, 3);
        assert_eq!(nodes.len(), 3);
        let mut all: Vec<ResourceId> = nodes.iter().flat_map(|n| [n.cpu, n.disk, n.nic]).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 9, "resources must be distinct");
        assert_eq!(engine.resource_name(nodes[1].disk), "node1.disk");
    }

    #[test]
    #[should_panic(expected = "only")]
    fn oversubscribing_the_cluster_panics() {
        let mut engine = Engine::new();
        ClusterSpec::cluster_m().instantiate(&mut engine, 17);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_nodes_panics() {
        let mut engine = Engine::new();
        ClusterSpec::cluster_d().instantiate(&mut engine, 0);
    }
}
