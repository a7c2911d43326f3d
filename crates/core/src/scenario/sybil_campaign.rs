//! Scenario 2 — **Sybil campaign**: an attacker grafts a region of fake
//! identities onto the honest graph and sweeps an increasing *attack-edge
//! budget* (the survey's §VI framing: the sybil region's only lever is how
//! many honest users it can social-engineer into linking to it). The
//! random-walk detector ([`SybilDetector`]) walks the CSR workload graph
//! directly — the one graph type it takes, the one the placement layer
//! routes on — so a 100k-vertex sweep holds no per-vertex names.
//!
//! Per budget the campaign measures precision/recall over the sybil region
//! plus an honest control group; the bench gates the tightest-budget
//! recall (`sybil_detection_rate`) — the regime SybilGuard-style defenses
//! are supposed to win.

use super::ScenarioConfig;
use crate::network::{SocialGraphConfig, WorkloadGraph};
use crate::sybil::{inject_sybil_region_csr, SybilDetector};

/// One attack-edge budget point of the campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SybilPoint {
    /// Attack edges the sybil region bought.
    pub attack_edges: usize,
    /// Sybils rejected by the detector (true positives).
    pub detected: usize,
    /// Sybils accepted (false negatives).
    pub missed: usize,
    /// Honest controls accepted (true negatives).
    pub honest_accepted: usize,
    /// Honest controls rejected (false positives).
    pub honest_rejected: usize,
    /// `detected / (detected + honest_rejected)`.
    pub precision: f64,
    /// `detected / (detected + missed)`.
    pub recall: f64,
}

/// Campaign results across the budget sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SybilCampaignOutcome {
    /// Honest-graph size.
    pub nodes: usize,
    /// Sybil identities per budget point.
    pub sybils: usize,
    /// Honest control-group size.
    pub honest_controls: usize,
    /// One point per attack-edge budget, ascending.
    pub points: Vec<SybilPoint>,
    /// Recall at the tightest budget — the gated headline.
    pub detection_rate: f64,
    /// Honest acceptance rate at the tightest budget.
    pub honest_accept_rate: f64,
}

/// Calibrates the detector to the graph scale: SybilGuard walks are
/// Θ(√(n log n)), and the acceptance threshold must sit below the honest
/// footprint overlap but above the sybil one.
fn calibrated_detector(nodes: usize, seed: u64) -> SybilDetector {
    let n = nodes as f64;
    SybilDetector {
        walks: 32,
        walk_length: (n * n.ln()).sqrt().ceil() as usize,
        intersection_threshold: 0.25,
        seed,
    }
}

/// Runs the campaign: one honest graph, one sybil region per budget.
pub fn run(cfg: &ScenarioConfig) -> SybilCampaignOutcome {
    let (nodes, sybils, controls, budgets): (usize, usize, usize, &[usize]) = if cfg.fast {
        (10_000, 150, 60, &[1, 4, 16, 64])
    } else {
        (100_000, 400, 120, &[1, 4, 16, 64])
    };
    let honest = WorkloadGraph::generate(&SocialGraphConfig::new(nodes, cfg.seed));
    let detector = calibrated_detector(nodes, cfg.seed ^ 0x5B11);
    // Verifier: the best-connected honest vertex; controls: an even spread
    // of honest vertices, excluding the verifier.
    let verifier = (0..nodes as u32)
        .max_by_key(|&v| (honest.degree(v), std::cmp::Reverse(v)))
        .unwrap_or(0);
    let control_group: Vec<u32> = (0..nodes as u32)
        .step_by(nodes / controls)
        .filter(|&v| v != verifier)
        .take(controls)
        .collect();

    let mut points = Vec::with_capacity(budgets.len());
    for &budget in budgets {
        let (attacked, region) =
            inject_sybil_region_csr(&honest, sybils, budget, cfg.seed ^ budget as u64);
        let suspects: Vec<u32> = region.collect();
        let (missed, detected) = detector.sweep(&attacked, verifier, &suspects);
        let (honest_accepted, honest_rejected) =
            detector.sweep(&attacked, verifier, &control_group);
        points.push(SybilPoint {
            attack_edges: budget,
            detected,
            missed,
            honest_accepted,
            honest_rejected,
            precision: detected as f64 / (detected + honest_rejected).max(1) as f64,
            recall: detected as f64 / (detected + missed).max(1) as f64,
        });
    }
    let tightest = points[0];
    SybilCampaignOutcome {
        nodes,
        sybils,
        honest_controls: control_group.len(),
        detection_rate: tightest.recall,
        honest_accept_rate: tightest.honest_accepted as f64
            / (tightest.honest_accepted + tightest.honest_rejected).max(1) as f64,
        points,
    }
}
