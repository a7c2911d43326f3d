//! Experiment E6 (survey §I/§II): availability vs replication under churn.
//!
//! The survey motivates DOSN replication with "users cannot guarantee full
//! time data availability by relying on their system's ability". The table
//! sweeps replication factor × node uptime; availability should rise with
//! both and saturate, and repair should suppress data loss.

use crate::{num, Run};
use dosn_overlay::churn::{run_availability, ChurnConfig};

pub(super) fn run(run: &mut Run) {
    let days: u64 = run.pick(7, 1);
    run.table(
        &format!("E6: mean availability vs replication factor ({days} simulated days)"),
        "replicas | uptime≈20% | uptime≈50% | uptime≈80%",
    );
    for replicas in [1usize, 2, 3, 4, 6, 8] {
        let mut cells = vec![replicas.into()];
        for (on, off) in [(60.0, 240.0), (120.0, 120.0), (240.0, 60.0)] {
            let report = run_availability(&ChurnConfig {
                nodes: 256,
                objects: 80,
                replicas,
                mean_online_min: on,
                mean_offline_min: off,
                leave_probability: 0.01,
                repair_lag_min: Some(30.0),
                duration_min: days * 24 * 60,
                seed: 6,
            });
            cells.push(num(report.mean_availability, 3));
        }
        run.row(&cells);
    }

    run.table(
        "E6: objects permanently lost (3 replicas, 20% departure-per-offline)",
        "repair | objects lost | repairs performed | mean availability",
    );
    for (label, lag) in [
        ("none", None),
        ("30 min lag", Some(30.0)),
        ("6 h lag", Some(360.0)),
    ] {
        let report = run_availability(&ChurnConfig {
            nodes: 256,
            objects: 80,
            replicas: 3,
            leave_probability: 0.2,
            repair_lag_min: lag,
            duration_min: days * 24 * 60,
            seed: 66,
            ..ChurnConfig::default()
        });
        run.row(&[
            label.into(),
            report.objects_lost.into(),
            report.repairs.into(),
            num(report.mean_availability, 3),
        ]);
    }
}
