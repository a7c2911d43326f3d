//! E13: observability smoke run over the assembled engine (`BENCH_4.json`).
//!
//! Exercises every instrumented path once — registration, key
//! dissemination, posting, quorum reads, a crash plus read-repair — over
//! the run's one [`dosn_obs::Registry`] and prints the human `fmt_table()`
//! view. The headline is *instrument coverage*: how many distinct
//! histograms fired. The point of the gate on this report is structural,
//! not performance: if a refactor silently disconnects a timer or counter,
//! coverage drops and CI fails.

use super::e12::{crash_every_4th, post_all, read_all, ring_of_friends};
use crate::{num, once_ns, wall, Run};
use dosn_core::engine::Engine;
use dosn_core::network::{ChordPlane, ReplicatedStore};

const SEED: u64 = 0xE13;

pub(super) fn run(run: &mut Run) {
    let (users, posts_per_user) = run.pick((8, 4u64), (4, 2));
    let store = ReplicatedStore::new(ChordPlane::build(32, SEED), 3).with_obs(run.obs().clone());
    let mut net = Engine::new(store, SEED);

    let ((posted, readable), elapsed_ns) = once_ns(|| {
        ring_of_friends(&mut net, users);
        let posted = post_all(&mut net, users, posts_per_user);
        assert_eq!(read_all(&mut net, users, &posted), posted.len());
        // Crash a quarter of the storage nodes and read every wall again so
        // the repair timer (`store.get.repair`) fires on live data.
        crash_every_4th(&mut net);
        (posted.len(), read_all(&mut net, users, &posted))
    });
    let availability = readable as f64 / posted as f64;

    // Human view: the full instrument table, refreshed gauges included.
    let snap = net.publish_obs();
    println!("{}", snap.fmt_table());
    let hist_coverage = snap.histograms.values().filter(|h| !h.is_empty()).count();

    run.table(
        "E13: observability smoke (every instrumented path once)",
        "posts | reads | readable after 25% crash | availability | histograms fired | elapsed (s)",
    );
    run.row(&[
        posted.into(),
        (posted * 2).into(),
        readable.into(),
        num(availability, 2),
        hist_coverage.into(),
        wall(elapsed_ns / 1e9, 2),
    ]);
    // Structural gate: every instrumented path must keep firing.
    run.headline("histogram_coverage", hist_coverage as f64);
    run.headline("availability_after_crash", availability);
}
