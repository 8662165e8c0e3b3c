//! The benchmark's three workloads: two program shapes from
//! `parsecs_workloads::scale`, each on a chip configuration chosen to load
//! a different layer of the pipeline (see the README's workload table).

use parsecs_core::SimConfig;
use parsecs_isa::Program;
use parsecs_workloads::scale;

/// The generator behind a workload, with its problem size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `chains` independent serial chains of `links` links each.
    FanChain { chains: usize, links: usize },
    /// A fork-parallel histogram of `keys` LCG keys over `buckets` buckets.
    SynthHistogram { keys: usize, buckets: usize },
}

/// One benchmark workload: a program shape and the chip it runs on. Every
/// `SimConfig` field the environment could change is pinned here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub cores: usize,
    /// Full mode (the per-instruction stage table) when `true`,
    /// stats-only otherwise.
    pub record_timings: bool,
    pub validate: bool,
}

/// 2,164,742 instructions in 144,385 sections: 141 sections per core
/// against a capacity of 8, so placement spills on a full chip.
const FAN_CHAIN: Shape = Shape::FanChain {
    chains: 1024,
    links: 140,
};

/// 2,119,743 instructions in 16,384 sections, on shared bucket counters.
const SYNTH_HISTOGRAM: Shape = Shape::SynthHistogram {
    keys: 140_000,
    buckets: 4096,
};

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fan_chain-1024c",
        shape: FAN_CHAIN,
        cores: 1024,
        record_timings: false,
        validate: false,
    },
    Workload {
        name: "synth_histogram-256c",
        shape: SYNTH_HISTOGRAM,
        cores: 256,
        record_timings: false,
        validate: false,
    },
    Workload {
        name: "synth_histogram-256c-checked",
        shape: SYNTH_HISTOGRAM,
        cores: 256,
        record_timings: true,
        validate: true,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at ≈50k instructions on an eighth of the chip,
    /// for tests: the fan chain still oversubscribes every core and the
    /// histogram still shares buckets across sections.
    #[cfg(test)]
    pub fn miniature(self) -> Workload {
        let shape = match self.shape {
            Shape::FanChain { .. } => Shape::FanChain {
                chains: 128,
                links: 26,
            },
            Shape::SynthHistogram { .. } => Shape::SynthHistogram {
                keys: 3_300,
                buckets: 512,
            },
        };
        Workload {
            shape,
            cores: self.cores / 8,
            ..self
        }
    }

    pub fn program(&self, seed: u64) -> Program {
        match self.shape {
            Shape::FanChain { chains, links } => scale::fan_chain_program(chains, links, seed),
            Shape::SynthHistogram { keys, buckets } => {
                scale::synth_histogram_program(keys, buckets, seed)
            }
        }
    }

    pub fn fuel(&self) -> u64 {
        match self.shape {
            Shape::FanChain { chains, links } => scale::fan_chain_fuel(chains, links),
            Shape::SynthHistogram { keys, buckets } => scale::synth_histogram_fuel(keys, buckets),
        }
    }

    /// The oracle outputs of [`Workload::program`].
    pub fn expected(&self, seed: u64) -> Vec<u64> {
        match self.shape {
            Shape::FanChain { chains, links } => scale::fan_chain_expected(chains, links, seed),
            Shape::SynthHistogram { keys, buckets } => {
                scale::synth_histogram_expected(keys, buckets, seed)
            }
        }
    }

    /// The simulator configuration: default crossbar NoC and round-robin
    /// placement, with `validate`, `threads`, `record_timings` and `fuel`
    /// set explicitly so `PARSECS_VALIDATE` / `PARSECS_THREADS` cannot
    /// change what is measured. Every workload runs the sequential engine;
    /// the traced run times the two-thread engine beside it.
    pub fn config(&self) -> SimConfig {
        let mut config = SimConfig::with_cores(self.cores);
        config.validate = self.validate;
        config.threads = 1;
        config.record_timings = self.record_timings;
        config.fuel = self.fuel();
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(Workload::find(w.name), Some(w));
        }
        assert_eq!(Workload::find("nope"), None);
    }

    #[test]
    fn configs_pin_every_environment_default() {
        for w in WORKLOADS {
            let config = w.config();
            assert_eq!(config.validate, w.validate);
            assert_eq!(config.threads, 1);
            assert_eq!(config.record_timings, w.record_timings);
            assert_eq!(config.fuel, w.fuel());
            assert_eq!(config.placement.name(), "round-robin");
            assert_eq!(config.topology, None);
        }
    }
}
