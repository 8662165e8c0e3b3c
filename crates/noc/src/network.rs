//! Event-driven message delivery.
//!
//! Messages are injected with [`Network::send`] and collected with
//! [`Network::deliver`]. The network is usable both by a cycle-stepping
//! caller (call `deliver(now)` once per cycle) and by an event-driven
//! caller that jumps the clock: [`Network::next_arrival`] exposes the
//! earliest pending arrival cycle, and `deliver(now)` drains everything
//! due up to and including `now` while still applying the per-receiving-
//! core ejection bandwidth *per arrival cycle*, never one budget for a
//! whole multi-cycle backlog.

use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};

use crate::{CoreId, Topology};

/// Timing and bandwidth parameters of the on-chip network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Fixed cost added to every message (injection + ejection), in cycles.
    pub base_latency: u64,
    /// Cost per router hop, in cycles.
    pub per_hop_latency: u64,
    /// Maximum number of messages a single core can *receive* per cycle;
    /// `None` means unlimited. Excess messages are delayed to later cycles.
    pub link_bandwidth: Option<usize>,
}

impl Default for NocConfig {
    /// One cycle per hop, one cycle of fixed overhead, unlimited ejection
    /// bandwidth — the charge model implied by the paper's Figure 10
    /// (3 cycles to reach a neighbouring producer and return).
    fn default() -> NocConfig {
        NocConfig {
            base_latency: 1,
            per_hop_latency: 1,
            link_bandwidth: None,
        }
    }
}

/// A message travelling through the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<T> {
    /// Sender.
    pub src: CoreId,
    /// Receiver.
    pub dst: CoreId,
    /// Cycle at which the message was injected.
    pub sent_at: u64,
    /// Cycle at which the message becomes visible at the receiver.
    pub arrives_at: u64,
    /// The payload.
    pub payload: T,
}

/// Delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Messages injected.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Sum of hop counts over all injected messages.
    pub total_hops: u64,
    /// Sum of (arrival − send) latencies over delivered messages.
    pub total_latency: u64,
    /// Largest number of messages in flight at any injection point.
    pub peak_in_flight: usize,
}

impl NocStats {
    /// Average end-to-end latency of delivered messages, in cycles.
    pub fn average_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Pending<T> {
    arrives_at: u64,
    sequence: u64,
    envelope: Envelope<T>,
}

impl<T: Eq> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: invert so the earliest arrival (then the
        // earliest injection order) pops first.
        other
            .arrives_at
            .cmp(&self.arrives_at)
            .then(other.sequence.cmp(&self.sequence))
    }
}

impl<T: Eq> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The on-chip network: messages are injected with [`Network::send`] and
/// collected, cycle by cycle, with [`Network::deliver`].
#[derive(Debug, Clone)]
pub struct Network<T> {
    topology: Topology,
    config: NocConfig,
    pending: BinaryHeap<Pending<T>>,
    stats: NocStats,
    sequence: u64,
    /// Messages ejected per receiving core in the arrival cycle being
    /// delivered (bandwidth-limited networks only; reused across cycles).
    ejected: HashMap<CoreId, usize>,
    /// Messages refused by a saturated ejection port in that cycle
    /// (bandwidth-limited networks only; reused across cycles).
    postponed: Vec<Pending<T>>,
}

impl<T: Eq> Network<T> {
    /// Creates an empty network over `topology` with `config` timing.
    pub fn new(topology: Topology, config: NocConfig) -> Network<T> {
        Network {
            topology,
            config,
            pending: BinaryHeap::new(),
            stats: NocStats::default(),
            sequence: 0,
            ejected: HashMap::new(),
            postponed: Vec::new(),
        }
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> NocStats {
        self.stats
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The earliest cycle at which a pending message arrives, or `None`
    /// when nothing is in flight. An event-driven caller can jump its
    /// clock straight to this cycle instead of ticking toward it.
    pub fn next_arrival(&self) -> Option<u64> {
        self.pending.peek().map(|p| p.arrives_at)
    }

    /// Computes the raw transit latency from `src` to `dst` (excluding
    /// bandwidth effects).
    pub fn latency(&self, src: CoreId, dst: CoreId) -> u64 {
        let hops = self.topology.hops(src, dst) as u64;
        self.config.base_latency + hops * self.config.per_hop_latency
    }

    /// Injects a message at cycle `now`. The message becomes visible at the
    /// destination no earlier than `now + latency(src, dst)`.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a core of the topology.
    pub fn send(&mut self, src: CoreId, dst: CoreId, payload: T, now: u64) {
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
        let arrives_at = now + self.latency(src, dst);
        let envelope = Envelope {
            src,
            dst,
            sent_at: now,
            arrives_at,
            payload,
        };
        self.stats.sent += 1;
        self.stats.total_hops += self.topology.hops(src, dst) as u64;
        self.sequence += 1;
        self.pending.push(Pending {
            arrives_at,
            sequence: self.sequence,
            envelope,
        });
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.pending.len());
    }

    /// Removes and returns every message that arrives at or before cycle
    /// `now`, respecting the per-*receiving-core* ejection bandwidth:
    /// messages beyond the limit stay queued and arrive on a later cycle.
    ///
    /// The bandwidth budget is applied per arrival cycle, so draining a
    /// multi-cycle backlog in one call (an event-driven caller jumping its
    /// clock) delivers exactly what `now − t` single-cycle calls would
    /// have: a message postponed at its arrival cycle competes again one
    /// cycle later, not at `now + 1`. Latency statistics are charged at
    /// each message's actual delivery cycle.
    pub fn deliver(&mut self, now: u64) -> Vec<Envelope<T>> {
        let mut delivered = Vec::new();
        self.deliver_into(now, &mut delivered);
        delivered
    }

    /// Like [`Network::deliver`], but appends into a caller-provided
    /// buffer instead of allocating one — the form an event-driven caller
    /// uses on its hot loop (one `deliver` per event cycle).
    pub fn deliver_into(&mut self, now: u64, delivered: &mut Vec<Envelope<T>>) {
        let Some(limit) = self.config.link_bandwidth else {
            // No ejection limit: everything due leaves in heap order,
            // (arrival, injection), each at its own arrival cycle.
            while let Some(head) = self.pending.peek_mut() {
                if head.arrives_at > now {
                    break;
                }
                let item = PeekMut::pop(head);
                self.stats.record_delivery(item.arrives_at, &item.envelope);
                delivered.push(item.envelope);
            }
            return;
        };
        // One pass per distinct arrival cycle ≤ `now`, each with a fresh
        // per-destination budget. Postponed messages re-enter the heap one
        // cycle later, so the outer loop revisits them while they are due.
        while let Some(head) = self.pending.peek() {
            if head.arrives_at > now {
                break;
            }
            let cycle = head.arrives_at;
            self.ejected.clear();
            while let Some(head) = self.pending.peek_mut() {
                if head.arrives_at > cycle {
                    break;
                }
                let mut item = PeekMut::pop(head);
                let used = self.ejected.entry(item.envelope.dst).or_insert(0);
                if *used >= limit {
                    // The ejection port is saturated this cycle; retry
                    // next cycle.
                    item.arrives_at = cycle + 1;
                    item.envelope.arrives_at = cycle + 1;
                    self.postponed.push(item);
                    continue;
                }
                *used += 1;
                self.stats.record_delivery(cycle, &item.envelope);
                delivered.push(item.envelope);
            }
            self.pending.extend(self.postponed.drain(..));
        }
    }
}

impl NocStats {
    /// Charges one message delivered at `cycle`.
    fn record_delivery<T>(&mut self, cycle: u64, envelope: &Envelope<T>) {
        self.delivered += 1;
        self.total_latency += cycle.saturating_sub(envelope.sent_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(config: NocConfig) -> Network<u32> {
        Network::new(Topology::mesh(4, 4), config)
    }

    #[test]
    fn latency_charges_base_plus_hops() {
        let n = net(NocConfig::default());
        assert_eq!(n.latency(CoreId(0), CoreId(0)), 1);
        assert_eq!(n.latency(CoreId(0), CoreId(1)), 2);
        assert_eq!(n.latency(CoreId(0), CoreId(15)), 7);
        let n = net(NocConfig {
            base_latency: 0,
            per_hop_latency: 3,
            link_bandwidth: None,
        });
        assert_eq!(n.latency(CoreId(0), CoreId(1)), 3);
    }

    #[test]
    fn messages_arrive_in_latency_order() {
        let mut n = net(NocConfig::default());
        n.send(CoreId(0), CoreId(15), 1, 0); // arrives at 7
        n.send(CoreId(0), CoreId(1), 2, 0); // arrives at 2
        assert_eq!(n.in_flight(), 2);
        assert!(n.deliver(1).is_empty());
        let at2 = n.deliver(2);
        assert_eq!(at2.len(), 1);
        assert_eq!(at2[0].payload, 2);
        let at7 = n.deliver(7);
        assert_eq!(at7.len(), 1);
        assert_eq!(at7[0].payload, 1);
        assert_eq!(n.in_flight(), 0);
        assert_eq!(n.stats().delivered, 2);
    }

    #[test]
    fn deliver_collects_everything_due() {
        let mut n = net(NocConfig::default());
        for i in 0..5 {
            n.send(CoreId(0), CoreId(1), i, 0);
        }
        let all = n.deliver(10);
        assert_eq!(all.len(), 5);
        // FIFO among equal arrival times.
        let payloads: Vec<u32> = all.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bandwidth_limit_spreads_deliveries() {
        let config = NocConfig {
            link_bandwidth: Some(2),
            ..NocConfig::default()
        };
        let mut n = net(config);
        for i in 0..5 {
            n.send(CoreId(0), CoreId(1), i, 0);
        }
        assert_eq!(n.deliver(2).len(), 2);
        assert_eq!(n.deliver(3).len(), 2);
        assert_eq!(n.deliver(4).len(), 1);
        assert_eq!(n.stats().delivered, 5);
    }

    #[test]
    fn bandwidth_limit_is_per_destination() {
        let config = NocConfig {
            link_bandwidth: Some(1),
            ..NocConfig::default()
        };
        let mut n = net(config);
        n.send(CoreId(0), CoreId(1), 1, 0);
        n.send(CoreId(0), CoreId(2), 2, 0);
        assert_eq!(
            n.deliver(3).len(),
            2,
            "different destinations do not contend"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net(NocConfig::default());
        n.send(CoreId(0), CoreId(3), 1, 0);
        n.send(CoreId(3), CoreId(0), 2, 0);
        n.deliver(100);
        let s = n.stats();
        assert_eq!(s.sent, 2);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.total_hops, 6);
        assert!(s.average_latency() > 0.0);
        assert_eq!(s.peak_in_flight, 2);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn sending_outside_the_chip_panics() {
        let mut n = net(NocConfig::default());
        n.send(CoreId(0), CoreId(99), 0, 0);
    }

    #[test]
    fn next_arrival_tracks_the_earliest_pending_message() {
        let mut n = net(NocConfig::default());
        assert_eq!(n.next_arrival(), None);
        n.send(CoreId(0), CoreId(15), 1, 0); // arrives at 7
        n.send(CoreId(0), CoreId(1), 2, 0); // arrives at 2
        assert_eq!(n.next_arrival(), Some(2));
        n.deliver(2);
        assert_eq!(n.next_arrival(), Some(7));
        n.deliver(7);
        assert_eq!(n.next_arrival(), None);
    }

    #[test]
    fn two_senders_targeting_one_core_share_its_ejection_port() {
        // The NocConfig doc promises a per-*receiving-core* per-cycle
        // ejection limit: two different senders whose messages reach the
        // same core on the same cycle must be serialised, one per cycle.
        let config = NocConfig {
            link_bandwidth: Some(1),
            ..NocConfig::default()
        };
        let mut n = net(config);
        n.send(CoreId(1), CoreId(0), 10, 0); // 1 hop, arrives at 2
        n.send(CoreId(4), CoreId(0), 20, 0); // 1 hop, arrives at 2
        let at2 = n.deliver(2);
        assert_eq!(at2.len(), 1, "one ejection per cycle at the receiver");
        assert_eq!(at2[0].payload, 10, "FIFO across senders");
        let at3 = n.deliver(3);
        assert_eq!(at3.len(), 1);
        assert_eq!(at3[0].payload, 20);
    }

    #[test]
    fn draining_a_backlog_applies_the_bandwidth_budget_per_cycle() {
        // Delivering a multi-cycle backlog in one call must behave exactly
        // like calling deliver once per cycle: fresh per-destination budget
        // each arrival cycle, latency charged at the delivery cycle.
        let config = NocConfig {
            link_bandwidth: Some(2),
            ..NocConfig::default()
        };
        let mut stepped = net(config);
        let mut jumped = net(config);
        for i in 0..5 {
            stepped.send(CoreId(0), CoreId(1), i, 0); // all arrive at 2
            jumped.send(CoreId(0), CoreId(1), i, 0);
        }
        let mut cycle_by_cycle = Vec::new();
        for now in 0..=10 {
            cycle_by_cycle.extend(stepped.deliver(now));
        }
        let in_one_call = jumped.deliver(10);
        assert_eq!(in_one_call, cycle_by_cycle);
        assert_eq!(jumped.stats(), stepped.stats());
        // 2 at cycle 2, 2 at cycle 3, 1 at cycle 4: total latency 2+2+3+3+4.
        assert_eq!(jumped.stats().total_latency, 14);
    }

    #[test]
    fn unlimited_backlogs_leave_in_arrival_then_send_order() {
        // Unlimited bandwidth: a backlog spanning several arrival cycles
        // drained in one call comes out in (arrival, send) order, with
        // the same latency charges as a cycle-by-cycle drain.
        let mut stepped = net(NocConfig::default());
        let mut jumped = net(NocConfig::default());
        let sends = [(15, 1), (1, 2), (5, 3), (1, 4), (15, 5), (0, 6)];
        for n in [&mut stepped, &mut jumped] {
            for (i, &(dst, payload)) in sends.iter().enumerate() {
                n.send(CoreId(0), CoreId(dst), payload, i as u64 / 2);
            }
        }
        let mut cycle_by_cycle = Vec::new();
        for now in 0..=10 {
            cycle_by_cycle.extend(stepped.deliver(now));
        }
        let in_one_call = jumped.deliver(10);
        assert_eq!(in_one_call, cycle_by_cycle);
        assert_eq!(jumped.stats(), stepped.stats());
        let order: Vec<(u64, u64, u32)> = in_one_call
            .iter()
            .map(|e| (e.arrives_at, e.sent_at, e.payload))
            .collect();
        // Core 0 → 0 costs 1, → 1 costs 2, → 5 costs 3, → 15 costs 7.
        assert_eq!(
            order,
            vec![
                (2, 0, 2),
                (3, 1, 4),
                (3, 2, 6),
                (4, 1, 3),
                (7, 0, 1),
                (9, 2, 5)
            ]
        );
        // Latency is charged at each message's own arrival cycle.
        assert_eq!(jumped.stats().total_latency, 2 + 2 + 1 + 3 + 7 + 7);
        assert_eq!(jumped.in_flight(), 0);
    }
}
