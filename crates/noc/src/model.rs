//! A pure static cost view of the network.
//!
//! [`NocModel`] pairs a [`Topology`] with a [`NocConfig`] and answers
//! cost questions — per-message transit latency and the per-core
//! ejection budget — without constructing a [`Network`](crate::Network)
//! or carrying any delivery state. Static analyses (the schedule-bound
//! pass in `parsecs-check`) consume this view to re-weight dependence
//! edges with the concrete chip's communication costs; the dynamic
//! [`Network`](crate::Network) charges exactly the same
//! [`NocModel::hop_latency`] on injection, so a bound derived from the
//! model is a bound on what the simulator can observe.

use crate::{CoreId, NocConfig, Topology};

/// A stateless cost model of the on-chip network: the topology's hop
/// distances combined with the configured per-hop and base latencies
/// and the ejection bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocModel {
    topology: Topology,
    config: NocConfig,
}

impl NocModel {
    /// Builds the cost view for `topology` under `config` timing.
    pub fn new(topology: Topology, config: NocConfig) -> NocModel {
        NocModel { topology, config }
    }

    /// The chip topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Transit latency of one message from `src` to `dst`, excluding
    /// bandwidth effects: `base_latency + hops(src, dst) ·
    /// per_hop_latency`. This is exactly what
    /// [`Network::latency`](crate::Network::latency) charges on
    /// injection.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a core of the topology.
    pub fn hop_latency(&self, src: CoreId, dst: CoreId) -> u64 {
        assert!(
            self.topology.contains(src),
            "{src} outside {}",
            self.topology
        );
        assert!(
            self.topology.contains(dst),
            "{dst} outside {}",
            self.topology
        );
        let hops = self.topology.hops(src, dst) as u64;
        self.config.base_latency + hops * self.config.per_hop_latency
    }

    /// Maximum number of messages one core can receive per cycle
    /// (`None` = unlimited): the per-receiving-core budget
    /// [`Network::deliver`](crate::Network::deliver) applies per
    /// arrival cycle.
    pub fn ejection_budget(&self) -> Option<usize> {
        self.config.link_bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Network;

    #[test]
    fn hop_latency_matches_the_dynamic_network() {
        let topology = Topology::mesh(4, 4);
        let config = NocConfig {
            base_latency: 2,
            per_hop_latency: 3,
            link_bandwidth: Some(2),
        };
        let model = NocModel::new(topology, config);
        let net: Network<u32> = Network::new(topology, config);
        for src in (0..16).map(CoreId) {
            for dst in (0..16).map(CoreId) {
                assert_eq!(model.hop_latency(src, dst), net.latency(src, dst));
            }
        }
        assert_eq!(model.ejection_budget(), Some(2));
        assert_eq!(model.topology(), topology);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn hop_latency_outside_the_chip_panics() {
        let model = NocModel::new(Topology::crossbar(4), NocConfig::default());
        model.hop_latency(CoreId(0), CoreId(9));
    }
}
