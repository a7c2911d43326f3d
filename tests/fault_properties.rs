//! Workspace-wide property tests for link faults: Chord and Kademlia
//! lookups must converge under *randomized* loss once a randomized
//! partition heals. (Fork-detection liveness under random fault plans is
//! asserted beside its gossip loop, in `fork_gossip_sim.rs`.)
//!
//! Failures print the per-case seed; re-run with `PROPTEST_SEED=<seed>` to
//! replay the exact schedule.

use dosn::overlay::chord::ChordPlane;
use dosn::overlay::fault::LinkFaults;
use dosn::overlay::id::Key;
use dosn::overlay::kademlia::KademliaPlane;
use dosn::overlay::metrics::Metrics;
use dosn::overlay::storage::StoragePlane;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Chord lookups converge to the fault-free owner under randomized
    /// loss once a randomized two-way partition heals.
    #[test]
    fn chord_lookup_converges_under_random_faults(
        drop_p in 0.0f64..0.12,
        fault_seed in any::<u64>(),
        cut in 1usize..47,
        salt in any::<u64>(),
    ) {
        let mut chord = ChordPlane::build(48, 7);
        let ids = chord.node_ids();
        let (side_a, side_b) = ids.split_at(cut);
        let mut faults = LinkFaults::new(fault_seed, drop_p)
            .with_partition(side_a.iter().copied(), side_b.iter().copied());

        // While the cut is up, a lookup that must cross it fails.
        let key = Key::hash(&salt.to_le_bytes());
        let mut m = Metrics::new();
        let owner = chord.lookup(ids[0], key, &mut m).expect("reference lookup");
        let from = if side_b.contains(&owner) { side_a[0] } else { side_b[0] };
        if owner != from {
            prop_assert!(
                chord.lookup_with_faults(from, key, &mut m, &mut faults, 5).is_err(),
                "cross-partition lookup must fail"
            );
        }

        // Healed: every start converges to the reference owner.
        faults.heal_partitions();
        for &start in &ids {
            let mut m_ref = Metrics::new();
            let expect = chord.lookup(start, key, &mut m_ref).expect("reference");
            let mut m_faulty = Metrics::new();
            let got = chord.lookup_with_faults(start, key, &mut m_faulty, &mut faults, 5);
            prop_assert_eq!(got.expect("lookup under loss"), expect);
        }
    }

    /// Kademlia lookups still assemble a full replica set under randomized
    /// loss once the querying node's partition heals.
    #[test]
    fn kademlia_lookup_converges_under_random_faults(
        drop_p in 0.0f64..0.12,
        fault_seed in any::<u64>(),
        salt in any::<u64>(),
    ) {
        let mut kad = KademliaPlane::build(48, 20, 13);
        let ids = kad.node_ids();
        let from = ids[0];
        let mut faults = LinkFaults::new(fault_seed, drop_p)
            .with_partition([from], ids.iter().copied().filter(|&x| x != from));

        let key = Key::hash(&salt.to_le_bytes());
        let mut m = Metrics::new();
        prop_assert!(
            kad.lookup_with_faults(from, key, 3, &mut m, &mut faults, 5).is_empty(),
            "isolated node reaches nothing"
        );

        faults.heal_partitions();
        let mut m2 = Metrics::new();
        let found = kad.lookup_with_faults(from, key, 3, &mut m2, &mut faults, 5);
        prop_assert_eq!(found.len(), 3, "healed lookup fills the replica set");
    }
}
