//! Experiment E11: overlay fault tolerance under injected faults.
//!
//! The survey's availability discussion (§II-B, §V) argues that DOSN
//! organizations differ most visibly when the network misbehaves. E11a
//! drives Chord lookups through [`LinkFaults`] (i.i.d. loss, bounded
//! retries). E11b takes storage nodes down and back up on the schedule of
//! one [`FaultPlan`], applied through [`apply_crash_schedule`] — the path
//! the engine's crashes take — and reads an R = 3 replicated store at fixed
//! simulated times, reporting how much it serves, the read-repairs that
//! re-establish its copies, and a trace digest that pins every read's
//! outcome to the plan.

use crate::{num, Run};
use dosn_obs::names;
use dosn_overlay::chord::ChordPlane;
use dosn_overlay::fault::{FaultPlan, LinkFaults, SimTrace, TraceEvent, TraceEventKind};
use dosn_overlay::id::{Key, NodeId};
use dosn_overlay::metrics::Metrics;
use dosn_overlay::replication::{apply_crash_schedule, ReplicatedStore};
use dosn_overlay::storage::StoragePlane;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// E11b's storage nodes, stored items, and the simulated times it reads
/// every item at.
const NODES: usize = 64;
const ITEMS: u64 = 48;
const READ_AT_MS: [u64; 7] = [0, 1_000, 2_000, 3_000, 4_000, 5_000, 6_000];

/// The one crash plan of E11b: each node, with probability 1/3, crashes at
/// a uniform time in [0, 3 s); four in five of those restart 0.5–3 s later,
/// the rest stay down.
fn crash_plan(nodes: &[NodeId]) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(0xE11B);
    nodes.iter().fold(FaultPlan::default(), |plan, &node| {
        if rng.random_range(0..3u64) != 0 {
            return plan;
        }
        let at = rng.random_range(0..3_000u64);
        if rng.random_range(0..5u64) == 0 {
            plan.with_crash(node, at)
        } else {
            plan.with_crash_recovery(node, at, at + rng.random_range(500..=3_000u64))
        }
    })
}

/// One read time of E11b: the nodes down, the items served, the
/// read-repairs written, and the trace digest of every read so far.
struct ReadRound {
    at_ms: u64,
    down: usize,
    served: u64,
    repairs: u64,
    digest: String,
}

/// Stores [`ITEMS`] items on a 3-way replicated Chord store, then reads
/// every item at each of [`READ_AT_MS`] under [`crash_plan`]. Each read's
/// outcome (served or not, and the repairs it wrote) is folded into one
/// trace.
fn crash_recovery_run() -> [ReadRound; READ_AT_MS.len()] {
    let mut store = ReplicatedStore::new(ChordPlane::build(NODES, 77), 3);
    let plan = crash_plan(&store.plane().node_ids());
    let item = |i: u64| (Key::hash(format!("item-{i}").as_bytes()), i.to_le_bytes());
    let mut m = Metrics::new();
    for i in 0..ITEMS {
        let (key, value) = item(i);
        store
            .put(key, value.to_vec(), &mut m)
            .expect("all nodes online");
    }
    let mut trace = SimTrace::new();
    READ_AT_MS.map(|at_ms| {
        let down = apply_crash_schedule(store.plane_mut(), &plan, at_ms);
        let (mut served, mut repairs) = (0, 0);
        for i in 0..ITEMS {
            let (key, value) = item(i);
            let before = m.count(names::GET_REPAIRS);
            let ok = store.get(key, &mut m).is_ok_and(|got| got == value);
            let wrote = m.count(names::GET_REPAIRS) - before;
            served += u64::from(ok);
            repairs += wrote;
            trace.record(TraceEvent {
                kind: if ok {
                    TraceEventKind::Deliver
                } else {
                    TraceEventKind::DropOffline
                },
                at_ms,
                a: i,
                b: wrote,
                msg_id: 0,
            });
        }
        ReadRound {
            at_ms,
            down,
            served,
            repairs,
            digest: trace.hex_digest(),
        }
    })
}

fn crash_recovery_table(run: &mut Run) {
    run.table(
        "E11b: crash-recovery availability (64-node Chord, R = 3, 48 items, one crash plan)",
        "t (ms) | nodes down | served | repairs | trace digest (first 12 hex)",
    );
    for r in crash_recovery_run() {
        run.row(&[
            r.at_ms.into(),
            r.down.into(),
            num(r.served as f64 / ITEMS as f64, 2),
            r.repairs.into(),
            r.digest[..12].into(),
        ]);
    }
    println!(
        "\nexpected shape: served dips while the plan holds a third of the\n\
         nodes down and returns to 1.0 as they restart; repairs follow each\n\
         shift of placement onto nodes that lack a copy; the digest is\n\
         stable across runs — rerunning must print it unchanged"
    );
}

pub(super) fn run(run: &mut Run) {
    chord_loss_table(run);
    crash_recovery_table(run);
}

#[cfg(test)]
mod tests {
    /// E11b's rows (nodes down, items served, repairs per read time) and
    /// the trace digest of all its reads, pinned when E11b moved from a relay ring on an
    /// event queue to the replicated store under `apply_crash_schedule`.
    #[test]
    fn fault_plan_rows_are_pinned() {
        let rounds = super::crash_recovery_run();
        let rows: Vec<String> = rounds
            .iter()
            .map(|r| format!("{} {} {} {}", r.at_ms, r.down, r.served, r.repairs))
            .collect();
        assert_eq!(
            rows,
            [
                "0 0 48 0",
                "1000 10 43 13",
                "2000 17 42 27",
                "3000 22 39 23",
                "4000 8 48 8",
                "5000 7 48 0",
                "6000 6 48 0",
            ]
        );
        assert_eq!(
            rounds[rounds.len() - 1].digest,
            "2f8ecd72690a5fbcf7312258bd047503067cf03f8032c17b6f720d06cce446e2"
        );
    }
}
