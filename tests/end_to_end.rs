//! End-to-end integration tests across all four crates: the assembled
//! engine exercised under realistic multi-user scenarios.

use dosn::core::engine::Engine;
use dosn::core::network::{ChordPlane, ReplicatedStore};
use dosn::core::DosnError;

fn populated_net() -> Engine<ChordPlane> {
    let mut net = Engine::new(ReplicatedStore::new(ChordPlane::build(64, 77), 3), 77);
    for u in ["alice", "bob", "carol", "dave", "erin"] {
        net.register(u).unwrap();
    }
    net.befriend("alice", "bob", 0.9).unwrap();
    net.befriend("alice", "carol", 0.7).unwrap();
    net.befriend("bob", "dave", 0.8).unwrap();
    net
}

#[test]
fn multi_user_post_and_read() {
    let mut net = populated_net();
    let s1 = net.post("alice", "post one").unwrap();
    let s2 = net.post("alice", "post two").unwrap();
    assert_ne!(s1, s2);
    // Both friends read both posts.
    for reader in ["bob", "carol"] {
        assert_eq!(net.read_post(reader, "alice", s1).unwrap(), "post one");
        assert_eq!(net.read_post(reader, "alice", s2).unwrap(), "post two");
    }
    // Non-friends (dave, erin) cannot.
    for outsider in ["dave", "erin"] {
        assert!(net.read_post(outsider, "alice", s1).is_err());
    }
    // The author reads their own posts.
    assert_eq!(net.read_post("alice", "alice", s1).unwrap(), "post one");
}

#[test]
fn posts_survive_across_many_authors() {
    let mut net = populated_net();
    let mut seqs = Vec::new();
    for (author, text) in [
        ("alice", "from alice"),
        ("bob", "from bob"),
        ("carol", "from carol"),
    ] {
        seqs.push((author, net.post(author, text).unwrap(), text));
    }
    // alice <-> bob are friends; alice <-> carol are friends; bob & carol
    // are NOT friends with each other.
    assert_eq!(
        net.read_post("bob", "alice", seqs[0].1).unwrap(),
        "from alice"
    );
    assert_eq!(
        net.read_post("alice", "bob", seqs[1].1).unwrap(),
        "from bob"
    );
    assert_eq!(
        net.read_post("alice", "carol", seqs[2].1).unwrap(),
        "from carol"
    );
    assert!(net.read_post("carol", "bob", seqs[1].1).is_err());
}

#[test]
fn revocation_lifecycle() {
    let mut net = populated_net();
    let before = net.post("alice", "while friends").unwrap();
    net.unfriend("alice", "bob").unwrap();
    let after = net.post("alice", "post-breakup").unwrap();

    assert!(net.read_post("bob", "alice", after).is_err());
    assert!(net.read_post("bob", "alice", before).is_ok());
    // Carol, still a friend, reads everything (after re-key distribution,
    // which the symmetric scheme models via epochs).
    assert_eq!(
        net.read_post("carol", "alice", after).unwrap(),
        "post-breakup"
    );

    // Re-friending restores access to new posts.
    net.befriend("alice", "bob", 0.5).unwrap();
    let rekindled = net.post("alice", "friends again").unwrap();
    assert_eq!(
        net.read_post("bob", "alice", rekindled).unwrap(),
        "friends again"
    );
}

#[test]
fn timelines_remain_verifiable_after_activity() {
    let mut net = populated_net();
    for i in 0..10 {
        net.post("alice", &format!("alice {i}")).unwrap();
        if i % 2 == 0 {
            net.post("bob", &format!("bob {i}")).unwrap();
        }
    }
    for user in ["alice", "bob"] {
        let t = net.timeline(user).unwrap();
        t.verify(net.directory()).unwrap();
    }
    assert_eq!(net.timeline("alice").unwrap().entries().len(), 10);
    assert_eq!(net.timeline("bob").unwrap().entries().len(), 5);
}

#[test]
fn graph_and_metrics_views() {
    let mut net = populated_net();
    // Friends are the friends-group roster minus its owner, by name.
    assert_eq!(net.friends("alice"), ["bob", "carol"]);
    assert_eq!(net.friends("bob"), ["alice", "dave"]);
    assert!(net.friends("erin").is_empty() && net.friends("nobody").is_empty());
    let m0 = net.metrics().messages;
    net.post("alice", "x").unwrap();
    net.read_post("bob", "alice", 0).unwrap();
    assert!(net.metrics().messages > m0);
}

#[test]
fn errors_are_descriptive() {
    let mut net = populated_net();
    let err = net.read_post("bob", "alice", 42).unwrap_err();
    assert!(matches!(err, DosnError::ContentUnavailable(_)));
    assert!(err.to_string().contains("unavailable") || !err.to_string().is_empty());
    let err = net.befriend("alice", "nobody", 0.1).unwrap_err();
    assert!(matches!(err, DosnError::UnknownUser(_)));
    let err = net.unfriend("alice", "erin").unwrap_err();
    assert!(matches!(err, DosnError::UnknownUser(_)));
}
