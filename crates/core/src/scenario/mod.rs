//! End-to-end attack scenarios (E17): the composition layer that turns the
//! adversary machinery scattered across the workspace into four runnable,
//! *seeded* experiments. Each scenario wires a [`crate::engine::Engine`] or
//! a bare [`crate::network::ReplicatedStore`] over an
//! [`crate::network::AdversaryPlane`], drives a workload, and returns an
//! outcome struct that is **deterministic**: the same seed produces an equal
//! outcome (proved by the `scenario_determinism` integration test), apart
//! from the flash crowd's two wall-clock latency fields. The outcome is all
//! a scenario returns; the bench's E17 reports it.
//!
//! The four scenarios, mirroring the survey's threat catalog:
//!
//! | Scenario | Module | Attack surface |
//! |---|---|---|
//! | Viral flash crowd | [`flash_crowd`] | load, cache & placement planes |
//! | Sybil campaign | [`sybil_campaign`] | social graph (§VI sybils) |
//! | Dishonest quorum | [`dishonest_quorum`] | storage replicas (tamper/withhold) |
//! | Pod compromise | [`pod_compromise`] | federation provider (§III honest-but-curious → malicious) |

pub mod dishonest_quorum;
pub mod flash_crowd;
pub mod pod_compromise;
pub mod sybil_campaign;

pub use dishonest_quorum::{DishonestQuorumOutcome, QuorumPoint};
pub use flash_crowd::FlashCrowdOutcome;
pub use pod_compromise::PodCompromiseOutcome;
pub use sybil_campaign::{SybilCampaignOutcome, SybilPoint};

/// Shared scenario knobs: one seed drives every random choice, and `fast`
/// shrinks workloads to CI scale without changing their shape.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Master seed; scenarios derive sub-seeds from it deterministically.
    pub seed: u64,
    /// Shrunk workload for CI / examples (same code path, smaller n).
    pub fast: bool,
}

impl ScenarioConfig {
    /// A full-scale scenario configuration with the given seed.
    pub fn new(seed: u64) -> Self {
        ScenarioConfig { seed, fast: false }
    }

    /// Switches to the shrunk CI-scale workload.
    pub fn fast(mut self) -> Self {
        self.fast = true;
        self
    }
}
