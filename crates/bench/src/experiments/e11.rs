//! Experiment E11: overlay fault tolerance under injected link faults.
//!
//! The survey's availability discussion (§II-B, §V) argues that DOSN
//! organizations differ most visibly when the network misbehaves. This
//! experiment drives the closed-form overlays through [`LinkFaults`]
//! (i.i.d. loss + partitions, bounded retries) and the event-driven
//! simulator through a [`FaultPlan`] (loss, duplication, reordering,
//! crash-recovery), reporting lookup success, retry overhead, and the
//! reproducible trace digest that pins the whole schedule to its seed.

use crate::{num, Run};
use dosn_overlay::chord::ChordPlane;
use dosn_overlay::fault::{FaultPlan, LinkFaults};
use dosn_overlay::id::{Key, NodeId};
use dosn_overlay::metrics::Metrics;
use dosn_overlay::sim::{Actor, Context, Simulation};

const LOOKUPS: u64 = 60;
const RETRIES: u32 = 3;

fn chord_loss_table(run: &mut Run) {
    run.table(
        "E11a: chord lookups vs link loss (128 nodes, 3 retries/hop)",
        "drop prob | success | retries/lookup | reroutes/lookup",
    );
    for loss_pct in [0u64, 5, 10, 20, 30] {
        let mut ring = ChordPlane::build(128, 31);
        let mut faults = LinkFaults::new(100 + loss_pct, loss_pct as f64 / 100.0);
        let mut ok = 0u64;
        let mut m = Metrics::new();
        for i in 0..LOOKUPS {
            let key = Key::hash(format!("item-{i}").as_bytes());
            let from = ring.random_node(i * 7 + 1).expect("an online start");
            if ring
                .lookup_with_faults(from, key, &mut m, &mut faults, RETRIES)
                .is_ok()
            {
                ok += 1;
            }
        }
        run.row(&[
            format!("{loss_pct}%").into(),
            num(ok as f64 / LOOKUPS as f64, 2),
            num(m.count("chord.retry") as f64 / LOOKUPS as f64, 2),
            num(m.count("chord.reroute") as f64 / LOOKUPS as f64, 2),
        ]);
    }
    println!(
        "\nexpected shape: bounded retries hold success near 1.0 well past 10%\n\
         loss; retry traffic grows roughly linearly with the loss rate"
    );
}

/// Relay chain used to exercise the event-driven simulator.
struct Relay {
    n: u64,
}

impl Actor for Relay {
    type Msg = u32;

    fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: NodeId, ttl: u32) {
        if ttl > 0 {
            let next = NodeId((ctx.self_id().0 + 1) % self.n);
            ctx.send(next, ttl - 1);
        }
    }
}

fn run_sim(drop_pct: u64) -> Simulation<Relay> {
    let n = 16u64;
    let actors = (0..n).map(|_| Relay { n }).collect();
    let plan = FaultPlan::seeded(900 + drop_pct)
        .with_drop_probability(drop_pct as f64 / 100.0)
        .with_duplicate_probability(0.05)
        .with_reordering(0.1, 80)
        .with_crash_recovery(NodeId(3), 500, 2_000);
    let mut sim = Simulation::with_faults(actors, 77, Default::default(), plan);
    for i in 0..n {
        sim.post(NodeId(i), NodeId((i + 1) % n), 40);
    }
    sim.run_until_idle();
    sim
}

fn sim_fault_table(run: &mut Run) {
    run.table(
        "E11b: event simulator under a fault plan (16-node relay ring, ttl 40)",
        "drop prob | delivered | lost (link) | lost (offline) | duplicated | \
         trace digest (first 12 hex)",
    );
    for drop_pct in [0u64, 5, 15, 30] {
        let sim = run_sim(drop_pct);
        let s = sim.stats();
        run.row(&[
            format!("{drop_pct}%").into(),
            s.delivered.into(),
            s.dropped_link.into(),
            s.dropped_offline.into(),
            s.duplicated.into(),
            sim.trace().hex_digest()[..12].into(),
        ]);
    }
    println!(
        "\nexpected shape: loss truncates relay chains (each drop kills the\n\
         rest of that chain's ttl); the digest column is stable across runs —\n\
         rerunning this experiment must print identical digests"
    );
}

pub(super) fn run(run: &mut Run) {
    chord_loss_table(run);
    sim_fault_table(run);
}

#[cfg(test)]
mod tests {
    /// E11b's rows (delivered, lost to the link, lost offline, duplicated,
    /// digest), pinned from commit e6ca8f0: before the simulator shared its
    /// loss rule and per-node counts with the routed overlays.
    #[test]
    fn fault_plan_rows_are_pinned() {
        let rows: Vec<String> = [0u64, 5, 15, 30]
            .into_iter()
            .map(|drop_pct| {
                let sim = super::run_sim(drop_pct);
                let s = sim.stats();
                let (d, l, o, u) = (s.delivered, s.dropped_link, s.dropped_offline, s.duplicated);
                format!("{d} {l} {o} {u} {}", sim.trace().hex_digest())
            })
            .collect();
        assert_eq!(
            rows,
            [
                "434 0 38 22 33727ffc337d27b54d0d13a6d685b5f05b4810e8f1ad59d3cdddfce117fdd980",
                "201 10 16 11 5d0728ac11585b81c2299a3f6c8d4d82904e791c3f8269be9e03ef3e69a23d38",
                "64 17 1 2 f1bfcb42ea46f648eadb91e7da7c10077d7aa659e31a11171b5218e55e6ea625",
                "33 19 0 3 d75b27ca329631b2cfb2105f48fb558d07fe3d07d65d28f6d8aff93f40344bd8",
            ]
        );
    }
}
