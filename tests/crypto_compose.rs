//! Composition tests: the crypto layer's primitives working through the
//! overlay substrates — encrypted content in the DHT, Hummingbird streams
//! over federation, substitution over a centralized index.

use dosn::core::privacy::{
    HummingbirdPublisher, HummingbirdSubscriber, SubstitutionDictionary, SubstitutionVault,
};
use dosn::crypto::aead::SymmetricKey;
use dosn::crypto::chacha::SecureRng;
use dosn::crypto::group::SchnorrGroup;
use dosn::crypto::ibe::CocksPkg;
use dosn::overlay::chord::ChordPlane;
use dosn::overlay::federation::FederationPlane;
use dosn::overlay::id::Key;
use dosn::overlay::metrics::Metrics;
use dosn::overlay::replication::ReplicatedStore;

#[test]
fn encrypted_posts_through_the_dht_stay_opaque() {
    let mut rng = SecureRng::seed_from_u64(1);
    let key = SymmetricKey::generate(&mut rng);
    let mut dht = ReplicatedStore::new(ChordPlane::build(32, 2), 3);
    let mut m = Metrics::new();

    let plaintext = b"secret status update";
    let sealed = key.seal(plaintext, b"post:1", &mut rng);
    let storage_key = Key::hash(b"alice/post/1");
    dht.put(storage_key, sealed.clone(), &mut m).unwrap();

    // Any node can fetch the blob, but only the key holder opens it.
    let fetched = dht.get(storage_key, &mut m).unwrap();
    assert_eq!(fetched, sealed);
    assert_ne!(&fetched[..], plaintext, "DHT stores ciphertext only");
    assert_eq!(key.open(&fetched, b"post:1").unwrap(), plaintext);
    let wrong = SymmetricKey::generate(&mut rng);
    assert!(wrong.open(&fetched, b"post:1").is_err());
}

#[test]
fn ibe_messages_via_federation_pods() {
    // Encrypt to an identity string; the pod relays ciphertext it cannot read.
    let mut rng = SecureRng::seed_from_u64(2);
    let pkg = CocksPkg::setup(256, &mut rng);
    let params = pkg.public_params();

    let mut fed = FederationPlane::build(3);
    fed.register("alice@pod0", 0).unwrap();
    fed.register("bob@pod2", 2).unwrap();

    let ct = params.encrypt_hybrid(b"bob@pod2", b"cross-pod secret", &mut rng);
    // Model the wire: serialize the sealed payload through the federation.
    let blob = format!("{ct:?}").into_bytes(); // opaque to the pods
    let key = Key::hash(b"msg/alice->bob/1");
    let mut m = Metrics::new();
    fed.store("alice@pod0", key, blob, &mut m).unwrap();
    assert!(fed.fetch("bob@pod2", key, "alice@pod0", &mut m).is_ok());

    // Bob decrypts with his PKG-extracted key; Eve's extraction fails.
    let bob_key = pkg.extract(b"bob@pod2");
    assert_eq!(bob_key.decrypt_hybrid(&ct).unwrap(), b"cross-pod secret");
    let eve_key = pkg.extract(b"eve@pod1");
    assert!(eve_key.decrypt_hybrid(&ct).is_err());
}

#[test]
fn hummingbird_stream_with_many_subscribers() {
    let mut rng = SecureRng::seed_from_u64(3);
    let mut publisher = HummingbirdPublisher::new(SchnorrGroup::toy(), &mut rng);

    let tags = ["#rust", "#dosn", "#privacy"];
    let tweets: Vec<_> = (0..30)
        .map(|i| {
            publisher.publish(
                tags[i % tags.len()],
                format!("tweet {i}").as_bytes(),
                &mut rng,
            )
        })
        .collect();

    // Three subscribers, each obliviously keyed to one tag.
    for (idx, tag) in tags.iter().enumerate() {
        let (blinded, state) =
            HummingbirdSubscriber::subscribe_request(publisher.group(), tag, &mut rng);
        let ev = publisher.answer_subscription(&blinded).unwrap();
        let sub = HummingbirdSubscriber::finish(&state, &ev).unwrap();
        let mine: Vec<_> = tweets.iter().filter(|t| sub.matches(t)).collect();
        assert_eq!(mine.len(), 10, "subscriber {idx} sees exactly its tag");
        for t in mine {
            let body = sub.open(t).unwrap();
            assert!(String::from_utf8(body).unwrap().starts_with("tweet "));
        }
    }
}

#[test]
fn substitution_protects_profiles_on_a_central_index() {
    let mut rng = SecureRng::seed_from_u64(4);
    let mut dict = SubstitutionDictionary::new();
    dict.seed(
        "city",
        ["Berlin", "Paris", "Rome", "Vienna", "Oslo"]
            .into_iter()
            .map(String::from),
    );

    // Ten users publish their real city through their own friend keys.
    let mut published = Vec::new();
    for i in 0..10 {
        let key = SymmetricKey::generate(&mut rng);
        let vault = SubstitutionVault::new(key);
        let field = vault.publish(&mut dict, "city", &format!("RealCity{i}"), &mut rng);
        published.push((vault, field));
    }

    // The "provider" aggregates displayed values: every one is a plausible
    // pool member, and the real value never appears in the display of the
    // user who owns it unless by pool coincidence.
    for (vault, field) in &published {
        assert!(dict.pool("city").contains(&field.displayed));
        assert_eq!(
            vault.reveal(&dict, field).unwrap(),
            format!(
                "RealCity{}",
                published
                    .iter()
                    .position(|(_, f)| std::ptr::eq(f, field))
                    .unwrap()
            )
        );
        // Another user's vault cannot trace the swap.
        let (other_vault, _) = &published[(published
            .iter()
            .position(|(_, f)| std::ptr::eq(f, field))
            .unwrap()
            + 1)
            % published.len()];
        assert!(other_vault.reveal(&dict, field).is_err());
    }
}
