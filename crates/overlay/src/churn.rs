//! Churn and availability modeling (survey §I / §II).
//!
//! "The main obstacle of decentralization is that users are responsible for
//! their data availability … replication and caching are proven techniques
//! to ensure availability." Experiment E6 quantifies that claim: this module
//! simulates nodes with exponential on/off sessions, places `r` replicas of
//! each object, optionally repairs lost replicas after a detection lag, and
//! reports the fraction of time each object was reachable.
//!
//! The model steps whole minutes over session states and exchanges no
//! messages. Scheduled crashes of storage nodes are
//! [`crate::fault::FaultPlan`]'s, applied to a storage plane by
//! [`crate::replication::apply_crash_schedule`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the availability experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of tracked objects.
    pub objects: usize,
    /// Replicas per object (including the primary).
    pub replicas: usize,
    /// Mean online-session length, minutes.
    pub mean_online_min: f64,
    /// Mean offline-session length, minutes.
    pub mean_offline_min: f64,
    /// Probability that an offline event is a *permanent* departure, losing
    /// the replica (as opposed to a temporary disconnect that keeps data).
    pub leave_probability: f64,
    /// Minutes after a permanent loss before the repair process re-replicates
    /// onto a fresh online node (`None` disables repair).
    pub repair_lag_min: Option<f64>,
    /// Simulated duration in minutes.
    pub duration_min: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            nodes: 256,
            objects: 100,
            replicas: 3,
            mean_online_min: 120.0,
            mean_offline_min: 240.0,
            leave_probability: 0.02,
            repair_lag_min: Some(30.0),
            duration_min: 7 * 24 * 60,
            seed: 1,
        }
    }
}

/// Results of one availability run.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityReport {
    /// Mean over objects of (minutes with ≥1 online replica) / duration.
    pub mean_availability: f64,
    /// Worst object's availability.
    pub min_availability: f64,
    /// Objects that permanently lost all replicas (data loss events).
    pub objects_lost: usize,
    /// Repair transfers performed.
    pub repairs: u64,
    /// Average fraction of nodes online (sanity: ≈ on/(on+off)).
    pub mean_online_fraction: f64,
}

#[derive(Clone, Copy, PartialEq)]
enum NodeState {
    Online { until: u64 },
    Offline { until: u64, departed: bool },
}

/// Runs the availability experiment with minute-granularity time stepping.
///
/// ```
/// use dosn_overlay::churn::{run_availability, ChurnConfig};
///
/// let report = run_availability(&ChurnConfig {
///     nodes: 64,
///     objects: 20,
///     replicas: 3,
///     duration_min: 24 * 60,
///     ..ChurnConfig::default()
/// });
/// assert!(report.mean_availability > 0.5);
/// ```
///
/// # Panics
///
/// Panics when `replicas == 0`, `replicas > nodes`, or a mean session length
/// is not positive.
pub fn run_availability(config: &ChurnConfig) -> AvailabilityReport {
    assert!(config.replicas > 0, "need at least one replica");
    assert!(config.replicas <= config.nodes, "more replicas than nodes");
    assert!(
        config.mean_online_min > 0.0 && config.mean_offline_min > 0.0,
        "session means must be positive"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let exp = |rng: &mut StdRng, mean: f64| -> u64 {
        let u: f64 = rng.random_range(f64::EPSILON..1.0);
        (-mean * u.ln()).ceil().max(1.0) as u64
    };

    // Initialize node sessions in steady state: online w.p. on/(on+off).
    let p_online = config.mean_online_min / (config.mean_online_min + config.mean_offline_min);
    let mut nodes: Vec<NodeState> = (0..config.nodes)
        .map(|_| {
            if rng.random_range(0.0..1.0) < p_online {
                NodeState::Online {
                    until: exp(&mut rng, config.mean_online_min),
                }
            } else {
                NodeState::Offline {
                    until: exp(&mut rng, config.mean_offline_min),
                    departed: false,
                }
            }
        })
        .collect();

    // Place replicas on distinct random nodes.
    let mut object_replicas: Vec<Vec<usize>> = (0..config.objects)
        .map(|_| {
            let mut chosen = Vec::with_capacity(config.replicas);
            while chosen.len() < config.replicas {
                let n = rng.random_range(0..config.nodes);
                if !chosen.contains(&n) {
                    chosen.push(n);
                }
            }
            chosen
        })
        .collect();

    let mut available_min = vec![0u64; config.objects];
    let mut lost = vec![false; config.objects];
    let mut pending_repair: Vec<Vec<u64>> = vec![Vec::new(); config.objects];
    let mut repairs = 0u64;
    let mut online_sum = 0u64;

    for t in 0..config.duration_min {
        // Advance node sessions.
        for state in nodes.iter_mut() {
            match *state {
                NodeState::Online { until } if t >= until => {
                    let departed = rng.random_range(0.0..1.0) < config.leave_probability;
                    *state = NodeState::Offline {
                        until: t + exp(&mut rng, config.mean_offline_min),
                        departed,
                    };
                }
                NodeState::Offline { until, .. } if t >= until => {
                    *state = NodeState::Online {
                        until: t + exp(&mut rng, config.mean_online_min),
                    };
                }
                _ => {}
            }
        }
        let online: Vec<bool> = nodes
            .iter()
            .map(|s| matches!(s, NodeState::Online { .. }))
            .collect();
        online_sum += online.iter().filter(|&&o| o).count() as u64;

        for (obj, replicas) in object_replicas.iter_mut().enumerate() {
            if lost[obj] {
                continue;
            }
            // Permanent departures destroy replicas.
            replicas.retain(|&n| !matches!(nodes[n], NodeState::Offline { departed: true, .. }));
            let any_online = replicas.iter().any(|&n| online[n]);
            if any_online {
                available_min[obj] += 1;
            }
            // Repair: schedule re-replication for missing copies.
            if let Some(lag) = config.repair_lag_min {
                let missing = config.replicas - replicas.len() - pending_repair[obj].len();
                for _ in 0..missing {
                    pending_repair[obj].push(t + lag.ceil() as u64);
                }
                // Execute due repairs: need a live source replica and a
                // fresh online target.
                let due: Vec<u64> = pending_repair[obj]
                    .iter()
                    .copied()
                    .filter(|&d| d <= t)
                    .collect();
                if !due.is_empty() && any_online {
                    for _ in due {
                        let target = (0..config.nodes)
                            .map(|_| rng.random_range(0..config.nodes))
                            .find(|n| online[*n] && !replicas.contains(n));
                        if let Some(n) = target {
                            replicas.push(n);
                            repairs += 1;
                        }
                    }
                    pending_repair[obj].retain(|&d| d > t);
                }
            }
            if replicas.is_empty() {
                lost[obj] = true;
            }
        }
    }

    let avail: Vec<f64> = available_min
        .iter()
        .map(|&a| a as f64 / config.duration_min as f64)
        .collect();
    AvailabilityReport {
        mean_availability: avail.iter().sum::<f64>() / avail.len().max(1) as f64,
        min_availability: avail.iter().copied().fold(f64::INFINITY, f64::min).min(1.0),
        objects_lost: lost.iter().filter(|&&l| l).count(),
        repairs,
        mean_online_fraction: online_sum as f64
            / (config.duration_min as f64 * config.nodes as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ChurnConfig {
        ChurnConfig {
            nodes: 100,
            objects: 50,
            duration_min: 2 * 24 * 60,
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn online_fraction_matches_session_means() {
        let report = run_availability(&ChurnConfig {
            mean_online_min: 100.0,
            mean_offline_min: 100.0,
            leave_probability: 0.0,
            ..base()
        });
        assert!(
            (report.mean_online_fraction - 0.5).abs() < 0.1,
            "got {}",
            report.mean_online_fraction
        );
    }

    #[test]
    fn more_replicas_more_availability() {
        let run = |r: usize| {
            run_availability(&ChurnConfig {
                replicas: r,
                leave_probability: 0.0,
                repair_lag_min: None,
                ..base()
            })
            .mean_availability
        };
        let a1 = run(1);
        let a3 = run(3);
        let a6 = run(6);
        assert!(a3 > a1, "3 replicas ({a3}) must beat 1 ({a1})");
        assert!(a6 >= a3, "6 replicas ({a6}) must be at least 3 ({a3})");
        assert!(a6 > 0.9, "6 replicas should be highly available, got {a6}");
    }

    #[test]
    fn single_replica_matches_uptime() {
        let report = run_availability(&ChurnConfig {
            replicas: 1,
            leave_probability: 0.0,
            repair_lag_min: None,
            mean_online_min: 120.0,
            mean_offline_min: 240.0,
            ..base()
        });
        // Availability of one replica ≈ node uptime = 1/3.
        assert!(
            (report.mean_availability - 1.0 / 3.0).abs() < 0.12,
            "got {}",
            report.mean_availability
        );
    }

    #[test]
    fn departures_without_repair_lose_objects() {
        let report = run_availability(&ChurnConfig {
            replicas: 2,
            leave_probability: 0.3,
            repair_lag_min: None,
            duration_min: 7 * 24 * 60,
            ..base()
        });
        assert!(
            report.objects_lost > 0,
            "high departure rate without repair must lose data"
        );
        assert_eq!(report.repairs, 0);
    }

    #[test]
    fn repair_reduces_loss() {
        let no_repair = run_availability(&ChurnConfig {
            replicas: 3,
            leave_probability: 0.2,
            repair_lag_min: None,
            duration_min: 7 * 24 * 60,
            ..base()
        });
        let with_repair = run_availability(&ChurnConfig {
            replicas: 3,
            leave_probability: 0.2,
            repair_lag_min: Some(20.0),
            duration_min: 7 * 24 * 60,
            ..base()
        });
        assert!(with_repair.repairs > 0);
        assert!(
            with_repair.objects_lost <= no_repair.objects_lost,
            "repair must not increase loss ({} vs {})",
            with_repair.objects_lost,
            no_repair.objects_lost
        );
        assert!(with_repair.mean_availability > no_repair.mean_availability);
    }

    #[test]
    fn determinism_by_seed() {
        let a = run_availability(&base());
        let b = run_availability(&base());
        assert_eq!(a, b);
        let c = run_availability(&ChurnConfig { seed: 2, ..base() });
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "more replicas than nodes")]
    fn too_many_replicas_panics() {
        run_availability(&ChurnConfig {
            nodes: 2,
            replicas: 3,
            ..ChurnConfig::default()
        });
    }
}
