//! Configuration of the many-core simulator.

use parsecs_noc::{NocConfig, NocModel, Topology};

use crate::drain::CYCLE_LIMIT;
use crate::placement::{ChipView, Placement};

/// Parameters of the many-core timing model.
///
/// The defaults follow the assumptions of the paper's Figure 10 analysis:
/// one instruction per pipeline stage per cycle, an always-hitting L1
/// instruction cache, and a small fixed cost for reaching a remote producer
/// over the NoC.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of cores on the chip.
    pub cores: usize,
    /// Interconnect topology. The number of cores of the topology bounds
    /// `cores`; by default a crossbar with `cores` ports is used so that
    /// remote-operand latency matches the paper's flat 1-hop charge.
    pub topology: Option<Topology>,
    /// NoC timing.
    pub noc: NocConfig,
    /// Section placement policy, one of the closed set [`Placement`]
    /// (round robin by default; see [`SimConfig::with_placement`]).
    pub placement: Placement,
    /// Maximum number of sections placed on a single core
    /// (`max_section` in the paper). Placements keep to it while any core
    /// has room; when every core is at capacity the limit is relaxed so
    /// the run can still complete.
    pub max_sections_per_core: usize,
    /// Cycles to reach the data memory hierarchy (the loader / DMH) when a
    /// memory renaming request reaches the oldest section without finding a
    /// producer. The paper's example charges 3 cycles.
    pub dmh_latency: u64,
    /// Extra cycles charged per intermediate section visited by a renaming
    /// request (the backward walk of §4.2). The paper's shortcuts make this
    /// small; 0 models perfectly effective shortcuts and caching.
    pub per_section_hop: u64,
    /// A default budget of dynamic instructions to pre-execute
    /// functionally. No library code reads it: every entry point takes
    /// its fuel explicitly (`TraceArena::from_program(program, fuel)`,
    /// the driver's `execute_fueled(program, fuel)`).
    pub fuel: u64,
    /// Whether the fetch stage stalls when a control-flow instruction
    /// cannot be computed in the fetch stage (its sources are not yet
    /// full). The paper computes control in order; `true` models the stall,
    /// `false` models an idealised fetch that never waits on control.
    pub fetch_stalls_on_unresolved_control: bool,
    /// Whether the simulation records the per-instruction stage table
    /// ([`crate::SimResult::timings`], the paper's Figure 10 rows).
    ///
    /// With this off the run is **stats-only**: every aggregate in
    /// [`crate::SimStats`] — fetch/total cycles, IPCs, renaming counters,
    /// NoC statistics — is accumulated streaming during the simulation
    /// and comes out bit-identical to a recording run, but the stage
    /// table and the per-row accessors
    /// ([`crate::SimResult::section_timings`], `format_figure10`) are
    /// empty. Stats-only runs keep none of the table's columns: the
    /// resolver's `u32` `fd`/`ew`/`ret` columns and the 7 B/instruction a
    /// recording run copies from the arena, 19 B/instruction in all,
    /// cutting the simulator's per-instruction resident state from ~24
    /// to ~5 bytes on `synth_histogram` (~31 to ~12 on `fan_chain`) —
    /// the switch that lets 100M-instruction chip-scale cells fit. On by
    /// default.
    pub record_timings: bool,
    /// Whether the engine runs the static analysis of `parsecs-check`
    /// over the arena before simulating: the invariant validator, the
    /// critical-path bounds, and, once placed, the progress proof and the
    /// schedule bounds. The arena stores no location, so these passes
    /// check only its structure: a bare
    /// [`crate::ManyCoreSim::simulate_arena`] with `validate` on does not
    /// check that its dependences follow the program's renaming. Only a
    /// validated `ManyCoreBackend` run checks that, because it builds
    /// the arena through `parsecs-check`'s `LocationCheck` sink, which
    /// replays the renaming over each step's real reads and writes and
    /// refuses the run before it simulates when a dependence is wrong.
    /// A violation surfaces as
    /// [`crate::SimError::Invariant`]; a clean analysis is attached to
    /// [`crate::SimResult::check`], and a finished run that breaks one
    /// of its contracts (`critical_path ≤ lb ≤ total_cycles`) returns
    /// [`crate::SimError::Diverged`], release builds included. Off by
    /// default — the simulation paths are untouched when disabled; turn
    /// it on with [`SimConfig::validated`].
    pub validate: bool,
    /// Ignored: the engine is sequential. Kept only because the
    /// benchmark (`crates/bench/src/bin/benchmark/`) still sets it; it
    /// goes together with [`SimConfig::fuel`] once the benchmark stops.
    /// It takes no part in equality, since it never changes a run.
    pub threads: usize,
}

// Hand-written only so that the ignored `threads` is left out.
impl PartialEq for SimConfig {
    fn eq(&self, other: &SimConfig) -> bool {
        self.cores == other.cores
            && self.topology == other.topology
            && self.noc == other.noc
            && self.placement == other.placement
            && self.max_sections_per_core == other.max_sections_per_core
            && self.dmh_latency == other.dmh_latency
            && self.per_section_hop == other.per_section_hop
            && self.fuel == other.fuel
            && self.fetch_stalls_on_unresolved_control == other.fetch_stalls_on_unresolved_control
            && self.record_timings == other.record_timings
            && self.validate == other.validate
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            cores: 64,
            topology: None,
            noc: NocConfig {
                base_latency: 1,
                per_hop_latency: 1,
                link_bandwidth: None,
            },
            placement: Placement::RoundRobin,
            max_sections_per_core: 8,
            dmh_latency: 3,
            per_section_hop: 0,
            fuel: 50_000_000,
            fetch_stalls_on_unresolved_control: true,
            record_timings: true,
            validate: false,
            threads: 1,
        }
    }
}

impl SimConfig {
    /// A configuration with `cores` cores and the other parameters at their
    /// defaults.
    pub fn with_cores(cores: usize) -> SimConfig {
        SimConfig {
            cores,
            ..SimConfig::default()
        }
    }

    /// Replaces the placement policy (builder style).
    pub fn with_placement(mut self, placement: Placement) -> SimConfig {
        self.placement = placement;
        self
    }

    /// Turns off the per-instruction stage table (builder style): the run
    /// becomes stats-only — see [`SimConfig::record_timings`].
    pub fn stats_only(mut self) -> SimConfig {
        self.record_timings = false;
        self
    }

    /// Turns on the pre-simulation static analysis (builder style) — see
    /// [`SimConfig::validate`] (the field; [`SimConfig::validate()`] the
    /// method checks the configuration itself).
    pub fn validated(mut self) -> SimConfig {
        self.validate = true;
        self
    }

    /// The effective topology: the configured one, or a crossbar over
    /// `cores`.
    pub(crate) fn effective_topology(&self) -> Topology {
        self.topology
            .unwrap_or(Topology::Crossbar { size: self.cores })
    }

    /// The static cost model handed to the schedule analyzer
    /// (`parsecs_check::bound_schedule`): the subset of this
    /// configuration that prices communication and memory latency.
    pub fn chip_model(&self) -> parsecs_check::ChipModel {
        parsecs_check::ChipModel {
            cores: self.cores,
            noc: self.chip_view().noc,
            dmh_latency: self.dmh_latency,
            per_section_hop: self.per_section_hop,
        }
    }

    /// The chip description handed to the placement policy.
    pub fn chip_view(&self) -> ChipView {
        ChipView {
            cores: self.cores,
            max_sections_per_core: self.max_sections_per_core,
            noc: NocModel::new(self.effective_topology(), self.noc),
        }
    }

    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message when the configuration cannot be simulated: zero
    /// cores, zero section capacity, a topology smaller than `cores`, or a
    /// latency that alone reaches the engine's cycle domain (2^30 cycles):
    /// `dmh_latency`, `per_section_hop`, or the NoC's longest transit,
    /// `base_latency + per_hop_latency × the topology's diameter`.
    ///
    /// This checks the configuration, not the run: the static analysis
    /// that the [`SimConfig::validate`] *field* turns on checks only the
    /// arena's structure when it is called through
    /// [`crate::ManyCoreSim::simulate_arena`]; only a validated
    /// `ManyCoreBackend` run also replays the renaming through
    /// `LocationCheck` (see the field's docs).
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("the chip needs at least one core".into());
        }
        if self.max_sections_per_core == 0 {
            return Err("each core must be able to host at least one section".into());
        }
        if self.effective_topology().num_cores() < self.cores {
            return Err(format!(
                "topology {} has fewer cores than the requested {}",
                self.effective_topology(),
                self.cores
            ));
        }
        let noc = self
            .noc
            .per_hop_latency
            .checked_mul(self.effective_topology().diameter() as u64)
            .and_then(|hops| hops.checked_add(self.noc.base_latency));
        for (what, latency) in [
            ("dmh_latency", Some(self.dmh_latency)),
            ("per_section_hop", Some(self.per_section_hop)),
            ("the NoC's longest transit", noc),
        ] {
            if latency.is_none_or(|cycles| cycles >= CYCLE_LIMIT) {
                return Err(format!(
                    "{what} must stay below the cycle domain's {CYCLE_LIMIT} cycles"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(SimConfig::default().validate().is_ok());
        assert!(SimConfig::with_cores(5).validate().is_ok());
    }

    #[test]
    fn defaults_are_unvalidated() {
        assert!(!SimConfig::default().validate);
    }

    #[test]
    fn the_ignored_thread_count_takes_no_part_in_equality() {
        let two = SimConfig {
            threads: 2,
            ..SimConfig::default()
        };
        assert_eq!(two, SimConfig::default());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(SimConfig::with_cores(0).validate().is_err());
        let c = SimConfig {
            max_sections_per_core: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
        let mut c = SimConfig::with_cores(16);
        c.topology = Some(Topology::mesh(2, 2));
        assert!(c.validate().is_err());
    }

    #[test]
    fn the_noc_transit_is_priced_over_the_topologys_diameter() {
        // A 4x4 mesh: the longest transit is base + 6 hops x per_hop.
        let mesh = |base_latency, per_hop_latency| {
            let mut c = SimConfig::with_cores(16);
            c.topology = Some(Topology::mesh(4, 4));
            c.noc.base_latency = base_latency;
            c.noc.per_hop_latency = per_hop_latency;
            c.validate()
        };
        assert_eq!(mesh(CYCLE_LIMIT - 7, 1), Ok(()));
        assert!(mesh(CYCLE_LIMIT - 6, 1).is_err());
        let per_hop = (CYCLE_LIMIT - 2) / 6;
        assert_eq!(mesh(1, per_hop), Ok(()));
        let err = mesh(1, per_hop + 1).expect_err("one past the domain");
        assert!(err.contains("cycle domain"), "{err}");
        assert!(mesh(1, u64::MAX).is_err());
        assert!(mesh(u64::MAX, 1).is_err());
    }

    #[test]
    fn effective_topology_defaults_to_crossbar() {
        let c = SimConfig::with_cores(7);
        assert_eq!(c.effective_topology(), Topology::Crossbar { size: 7 });
        let mut c = SimConfig::with_cores(4);
        c.topology = Some(Topology::mesh(2, 2));
        assert_eq!(c.effective_topology(), Topology::mesh(2, 2));
    }

    #[test]
    fn equality_distinguishes_placement_policies_by_name() {
        assert_eq!(
            SimConfig::with_cores(8),
            SimConfig::with_cores(8).with_placement(Placement::RoundRobin)
        );
        let all = [
            Placement::RoundRobin,
            Placement::LeastLoaded,
            Placement::LoadAware,
            Placement::ChainAffine,
        ];
        for a in all {
            for b in all {
                let (x, y) = (
                    SimConfig::with_cores(8).with_placement(a),
                    SimConfig::with_cores(8).with_placement(b),
                );
                assert_eq!(x == y, a.name() == b.name(), "{} vs {}", a.name(), b.name());
            }
        }
    }
}
