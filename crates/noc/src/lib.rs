//! # parsecs-noc — the network-on-chip substrate
//!
//! The paper's many-core processor connects its cores "by a Network-on-
//! Chip" over which section-creation messages, renaming requests, value
//! exports and retirement exports travel. The paper does not evaluate a
//! particular NoC; its hand-timed example (Figure 10) simply charges a
//! fixed number of cycles to reach the producer and come back. This crate
//! provides that substrate with explicit, configurable timing so the
//! many-core simulator (`parsecs-core`) can charge communication latency
//! per message and per hop:
//!
//! * [`Topology`] — 2-D mesh or ideal crossbar with hop distances;
//! * [`Network`] — cycle-driven message delivery with per-hop latency and
//!   optional per-destination bandwidth;
//! * [`NocModel`] — a stateless cost view (per-message latency, ejection
//!   budget) for static analyses that price communication without
//!   simulating it;
//! * [`NocStats`] — message and hop counters.
//!
//! ## Example
//!
//! ```
//! use parsecs_noc::{CoreId, Network, NocConfig, Topology};
//!
//! let topology = Topology::mesh(4, 4);
//! let mut net: Network<&'static str> = Network::new(topology, NocConfig::default());
//! net.send(CoreId(0), CoreId(5), "hello", 10);
//! // One hop in x, one in y, plus one cycle of fixed overhead: arrives at 13.
//! assert!(net.deliver(12).is_empty());
//! let arrived = net.deliver(13);
//! assert_eq!(arrived.len(), 1);
//! assert_eq!(arrived[0].payload, "hello");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod network;
mod topology;

pub use model::NocModel;
pub use network::{Envelope, Network, NocConfig, NocStats};
pub use topology::{CoreId, Topology};
