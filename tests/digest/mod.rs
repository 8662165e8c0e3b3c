//! FNV-1a digests shared by the golden tables and the differential
//! tests.

use parsecs::obs::{SimProbe, StallCause, TickGauges};

/// The FNV-1a offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a `hash`.
pub fn fnv1a_extend(mut hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Folds every probe hook but the per-cycle gauges into a running count
/// and digest: FNV-1a over each hook as little-endian `u64`s, a tag for
/// the hook, then its arguments in order (a `bool` as 0 or 1, a
/// [`StallCause`] as its index). `on_tick` and `on_walk` are left out:
/// they are per-cycle gauges of the engine's own schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventDigest {
    /// Hooks fired.
    pub events: u64,
    /// FNV-1a over the hooks, in order.
    pub fnv: u64,
}

impl Default for EventDigest {
    fn default() -> EventDigest {
        EventDigest {
            events: 0,
            fnv: FNV_OFFSET,
        }
    }
}

/// Folds one hook into a running FNV-1a `hash`: its tag, then its
/// arguments, each as a little-endian `u64`.
fn fold_hook(hash: u64, tag: u64, args: &[u64]) -> u64 {
    fnv1a_extend(
        hash,
        std::iter::once(tag)
            .chain(args.iter().copied())
            .flat_map(u64::to_le_bytes),
    )
}

impl EventDigest {
    fn push(&mut self, tag: u64, args: &[u64]) {
        self.events += 1;
        self.fnv = fold_hook(self.fnv, tag, args);
    }
}

impl SimProbe for EventDigest {
    fn on_section_begin(&mut self, core: usize, sid: u32, cycle: u64, resumed: bool) {
        self.push(0, &[core as u64, sid.into(), cycle, resumed.into()]);
    }
    fn on_section_end(&mut self, core: usize, sid: u32, cycle: u64, fetched: bool) {
        self.push(1, &[core as u64, sid.into(), cycle, fetched.into()]);
    }
    fn on_section_park(
        &mut self,
        core: usize,
        sid: u32,
        seq: usize,
        cycle: u64,
        cause: StallCause,
    ) {
        let args = [core as u64, sid.into(), seq as u64, cycle];
        self.push(2, &[&args[..], &[cause.index() as u64]].concat());
    }
    fn on_section_requeue(&mut self, core: usize, sid: u32, cycle: u64) {
        self.push(3, &[core as u64, sid.into(), cycle]);
    }
    fn on_section_retire(&mut self, sid: u32, cycle: u64) {
        self.push(4, &[sid.into(), cycle]);
    }
    fn on_fetch_stall(
        &mut self,
        core: usize,
        seq: usize,
        cause: StallCause,
        cycle: u64,
        resumes: u64,
    ) {
        let cause = cause.index() as u64;
        self.push(5, &[core as u64, seq as u64, cause, cycle, resumes]);
    }
    fn on_noc_send(&mut self, from: usize, to: usize, sid: u32, cycle: u64) {
        self.push(6, &[from as u64, to as u64, sid.into(), cycle]);
    }
    fn on_noc_deliver(&mut self, to: usize, sid: u32, cycle: u64) {
        self.push(7, &[to as u64, sid.into(), cycle]);
    }
    fn on_drain_round(&mut self, cycle: u64, round: usize, width: usize) {
        self.push(8, &[cycle, round as u64, width as u64]);
    }
}

/// Folds the two per-cycle gauge hooks that [`EventDigest`] leaves out
/// into counts and a digest: FNV-1a over each hook as little-endian
/// `u64`s, a tag for the hook, then its arguments in order (every
/// [`TickGauges`] field for `on_tick`, the cycle and the acting-core
/// count for `on_walk`). It pins which cycles the engine processes and
/// what its schedule holds at each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickDigest {
    /// `on_tick` calls.
    pub ticks: u64,
    /// `on_walk` calls.
    pub walks: u64,
    /// FNV-1a over both hooks, in order.
    pub fnv: u64,
}

impl Default for TickDigest {
    fn default() -> TickDigest {
        TickDigest {
            ticks: 0,
            walks: 0,
            fnv: FNV_OFFSET,
        }
    }
}

impl SimProbe for TickDigest {
    fn on_tick(&mut self, gauges: TickGauges) {
        self.ticks += 1;
        let TickGauges {
            cycle,
            running,
            calendar_depth,
            noc_in_flight,
            parked,
        } = gauges;
        let args = [cycle, running, calendar_depth, noc_in_flight, parked];
        self.fnv = fold_hook(self.fnv, 0, &args);
    }
    fn on_walk(&mut self, cycle: u64, active: usize) {
        self.walks += 1;
        self.fnv = fold_hook(self.fnv, 1, &[cycle, active as u64]);
    }
}
