//! The layer section of the traced run: the harness itself calls each
//! layer's public functions on inputs of the workload's shape (same node
//! count, R, group size, body size and cache fill) and times them from
//! outside. Fixed iteration counts, median of five repetitions, one child
//! span per measurement under a `layers` root span.

use crate::stack::{self, CACHE_CAPACITY, ENGINE_SEED, NODES, REPLICAS};
use crate::stats::median;
use crate::trace::Tracer;
use dosn_bigint::{BigUint, ModContext};
use dosn_core::feed::FeedCache;
use dosn_core::identity::Identity;
use dosn_core::integrity::envelope::SignedEnvelope;
use dosn_core::integrity::relations::PostRelationKeys;
use dosn_core::integrity::timeline::Timeline;
use dosn_core::network::{ChordPlane, KademliaPlane, SocialPlacement, SocialPlane, WorkloadGraph};
use dosn_core::privacy::{
    AbeGroupScheme, AccessScheme, IbbeGroupScheme, PkeGroupScheme, SymmetricGroupScheme,
};
use dosn_core::UserId;
use dosn_crypto::aead::SymmetricKey;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::{GroupSize, SchnorrGroup};
use dosn_crypto::keys::KeyDirectory;
use dosn_crypto::schnorr::{Signature, SigningKey};
use dosn_crypto::sha256::sha256;
use dosn_obs::Registry;
use dosn_overlay::hotcache::HotCache;
use dosn_overlay::id::Key;
use dosn_overlay::metrics::Metrics;
use dosn_overlay::replication::{quorum_vote, FetchedCopies};
use dosn_overlay::storage::StoragePlane;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const REPETITIONS: usize = 5;
/// Sealed-envelope size the storage layers see (header + signature +
/// ciphertext of a 200–300-byte post).
const VALUE_BYTES: usize = 512;
/// Plaintext size handed to the privacy schemes.
const BODY_BYTES: usize = 256;

struct Section<'a> {
    tracer: &'a mut Tracer,
    root: u32,
    out: BTreeMap<&'static str, f64>,
}

impl Section<'_> {
    /// Times `iters` calls of `f`, `REPETITIONS` times over, and returns
    /// the median nanoseconds per call.
    fn time_ns(&mut self, name: &'static str, iters: u64, mut f: impl FnMut()) -> f64 {
        let span = self.tracer.open(Some(self.root), name);
        let mut per_call = Vec::with_capacity(REPETITIONS);
        for _ in 0..REPETITIONS {
            let started = Instant::now();
            for _ in 0..iters {
                f();
            }
            per_call.push(started.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.tracer.close(span, iters * REPETITIONS as u64);
        median(&per_call)
    }

    fn ns(&mut self, name: &'static str, iters: u64, f: impl FnMut()) {
        let v = self.time_ns(name, iters, f);
        self.out.insert(name, v);
    }

    fn us(&mut self, name: &'static str, iters: u64, f: impl FnMut()) {
        let v = self.time_ns(name, iters, f);
        self.out.insert(name, v / 1e3);
    }
}

fn key(tag: &str, i: u64) -> Key {
    Key::hash(format!("layer/{tag}/{i}").as_bytes())
}

/// Runs every layer measurement and returns `metric name → value` in the
/// unit `spec::PER_LAYER` declares, with the id of the section's root span.
/// `registry` is the engine's own, so `obs.snapshot_us` sees the real
/// instrument population.
pub fn run(
    tracer: &mut Tracer,
    graph: &WorkloadGraph,
    registry: &Registry,
) -> (BTreeMap<&'static str, f64>, u32) {
    let root = tracer.open(None, "layers");
    let mut s = Section {
        tracer,
        root,
        out: BTreeMap::new(),
    };
    feed(&mut s);
    hotcache(&mut s);
    replication(&mut s, graph);
    overlay(&mut s, graph);
    privacy(&mut s);
    integrity(&mut s);
    crypto(&mut s);
    bigint(&mut s);
    obs(&mut s, registry);
    let out = s.out;
    tracer.close(root, out.len() as u64);
    (out, root)
}

fn feed(s: &mut Section<'_>) {
    // 2,000 readers x 7 authors x 3 posts: the feed working set.
    let head = [7u8; 32];
    let ids: Vec<UserId> = (0..2_400)
        .map(|i| UserId::from(format!("u{i:04}")))
        .collect();
    let mut cache = FeedCache::new(CACHE_CAPACITY);
    for r in 0..2_000 {
        for a in 1..=7 {
            for seq in 0..3 {
                cache.insert(
                    &ids[r],
                    &ids[(r + a) % 2_000],
                    seq,
                    head,
                    "x".repeat(BODY_BYTES),
                );
            }
        }
    }
    let mut i = 0usize;
    s.ns("feed.lookup_hit_ns", 20_000, || {
        let r = i % 2_000;
        let hit = cache.lookup(&ids[r], &ids[(r + 1 + i % 7) % 2_000], (i % 3) as u64, head);
        debug_assert!(hit.is_some());
        black_box(hit);
        i += 1;
    });
    // New (reader, author) slices, below capacity: no eviction.
    let mut n = 0usize;
    s.ns("feed.insert_ns", 2_000, || {
        let r = 2_000 + n % 400;
        cache.insert(
            &ids[r],
            &ids[n / 400],
            (n % 3) as u64,
            head,
            "x".repeat(BODY_BYTES),
        );
        n += 1;
    });
}

fn hotcache(s: &mut Section<'_>) {
    let value = vec![0xABu8; VALUE_BYTES];
    let mut cache = HotCache::new(CACHE_CAPACITY);
    for i in 0..CACHE_CAPACITY as u64 {
        cache.admit(key("hot", i), &value);
    }
    let mut i = 0u64;
    s.ns("hotcache.lookup_hit_ns", 20_000, || {
        black_box(cache.lookup(key("hot", i % CACHE_CAPACITY as u64)));
        i += 1;
    });
    // A new key into a full cache: the eviction path.
    let mut n = 0u64;
    s.ns("hotcache.admit_full_ns", 20, || {
        black_box(cache.admit(key("hot-new", n), &value));
        n += 1;
    });
}

fn replication(s: &mut Section<'_>, graph: &WorkloadGraph) {
    let mut store = stack::build_store(graph);
    let mut metrics = Metrics::new();
    let value = vec![0xCDu8; VALUE_BYTES];
    let mut n = 0u64;
    s.us("replication.put_us", 1_000, || {
        black_box(
            store
                .put(key("put", n), value.clone(), &mut metrics)
                .is_ok(),
        );
        n += 1;
    });
    let stored = n;
    let mut i = 0u64;
    s.us("replication.fetch_copies_us", 1_000, || {
        black_box(
            store
                .fetch_copies(key("put", i % stored), &mut metrics)
                .is_ok(),
        );
        i += 1;
    });
    let node_ids = store.plane().node_ids();
    let copies = |third: Vec<u8>| FetchedCopies {
        key: key("vote", 0),
        copies: vec![
            (node_ids[0], Some(value.clone())),
            (node_ids[1], Some(value.clone())),
            (node_ids[2], Some(third)),
        ],
    };
    let agree = copies(value.clone());
    s.ns("replication.quorum_vote_agree_ns", 20_000, || {
        black_box(quorum_vote(&agree, 2, |_| true).is_ok());
    });
    let mut forged = value.clone();
    forged[0] ^= 0xFF;
    let disagree = copies(forged);
    s.ns("replication.quorum_vote_disagree_ns", 20_000, || {
        black_box(quorum_vote(&disagree, 2, |_| true).is_ok());
    });
}

fn overlay(s: &mut Section<'_>, graph: &WorkloadGraph) {
    let mut metrics = Metrics::new();
    let value = vec![0xEFu8; VALUE_BYTES];

    let mut chord = ChordPlane::build(NODES, ENGINE_SEED);
    let mut i = 0u64;
    s.us("overlay.chord.candidates_us", 2_000, || {
        black_box(
            chord
                .replica_candidates(key("route", i), REPLICAS, &mut metrics)
                .is_ok(),
        );
        i += 1;
    });
    let nodes = chord.node_ids();
    let mut n = 0u64;
    s.ns("overlay.chord.store_at_ns", 5_000, || {
        let node = nodes[(n % NODES as u64) as usize];
        black_box(
            chord
                .store_at(node, key("slot", n), &value, &mut metrics)
                .is_ok(),
        );
        n += 1;
    });
    let stored = n;
    let mut j = 0u64;
    s.ns("overlay.chord.fetch_from_ns", 5_000, || {
        let at = j % stored;
        let node = nodes[(at % NODES as u64) as usize];
        black_box(
            chord
                .fetch_from(node, key("slot", at), &mut metrics)
                .is_ok(),
        );
        j += 1;
    });

    let ring = ChordPlane::build(NODES, ENGINE_SEED);
    let placement = SocialPlacement::new(graph.clone(), &ring.node_ids());
    let mut social = SocialPlane::new(ring, placement);
    let mut i = 0u64;
    s.us("overlay.social.candidates_us", 2_000, || {
        black_box(
            social
                .replica_candidates(key("route", i), REPLICAS, &mut metrics)
                .is_ok(),
        );
        i += 1;
    });

    // No workload runs on Kademlia; measured so that a shared-routing
    // change that hurts it still shows.
    let mut kademlia = KademliaPlane::build(NODES, 20, ENGINE_SEED);
    let mut i = 0u64;
    s.us("overlay.kademlia.candidates_us", 500, || {
        black_box(
            kademlia
                .replica_candidates(key("route", i), REPLICAS, &mut metrics)
                .is_ok(),
        );
        i += 1;
    });
}

fn privacy(s: &mut Section<'_>) {
    let mut rng = SecureRng::seed_from_u64(ENGINE_SEED);
    let body = vec![0x5Au8; BODY_BYTES];
    let members = |n: usize| -> Vec<String> { (0..n).map(|i| format!("m{i}")).collect() };
    let sixteen = members(16);
    let sixteen_refs: Vec<&str> = sixteen.iter().map(String::as_str).collect();
    // The engine's default scheme at a typical friends-group size; the
    // other three are layer-only guards at group 16.
    type Case = (
        &'static str,
        &'static str,
        Box<dyn AccessScheme>,
        usize,
        u64,
    );
    let cases: Vec<Case> = vec![
        (
            "privacy.symmetric.encrypt_us",
            "privacy.symmetric.decrypt_us",
            Box::new(SymmetricGroupScheme::new([11u8; 32])),
            8,
            2_000,
        ),
        (
            "privacy.pke.encrypt_us",
            "privacy.pke.decrypt_us",
            Box::new(PkeGroupScheme::with_fresh_identities(
                &sixteen_refs,
                &mut rng,
            )),
            16,
            20,
        ),
        (
            "privacy.abe.encrypt_us",
            "privacy.abe.decrypt_us",
            Box::new(AbeGroupScheme::new([12u8; 32])),
            16,
            20,
        ),
        (
            "privacy.ibbe.encrypt_us",
            "privacy.ibbe.decrypt_us",
            Box::new(IbbeGroupScheme::with_test_pkg()),
            16,
            1,
        ),
    ];
    for (encrypt, decrypt, mut scheme, group_size, iters) in cases {
        let group = scheme
            .create_group(&members(group_size))
            .expect("layer privacy group");
        s.us(encrypt, iters, || {
            black_box(scheme.encrypt(&group, &body).is_ok());
        });
        let sealed = scheme.encrypt(&group, &body).expect("layer encrypt");
        s.us(decrypt, iters, || {
            black_box(scheme.decrypt_as(&group, "m0", &sealed).is_ok());
        });
    }
}

fn integrity(s: &mut Section<'_>) {
    let group = SchnorrGroup::shared(GroupSize::Toy);
    let directory = KeyDirectory::new();
    let mut rng = SecureRng::seed_from_u64(ENGINE_SEED ^ 1);
    let author = Identity::create("layer-author", group.clone(), &directory, &mut rng);
    let author_id = author.id().clone();
    let ciphertext = vec![0x3Cu8; VALUE_BYTES - 100];
    let mut seal_rng = SecureRng::seed_from_u64(ENGINE_SEED ^ 2);
    s.us("integrity.seal_us", 500, || {
        black_box(SignedEnvelope::seal(
            &author,
            None,
            5,
            5,
            None,
            &ciphertext,
            &mut seal_rng,
        ));
    });
    let envelope = SignedEnvelope::seal(&author, None, 5, 5, None, &ciphertext, &mut rng);
    s.us("integrity.verify_us", 500, || {
        black_box(envelope.verify(&directory, None, u64::MAX - 1).is_ok());
    });
    let wire = envelope.encode_wire(0, &group);
    s.ns("integrity.decode_wire_ns", 5_000, || {
        black_box(SignedEnvelope::decode_wire(&author_id, 5, &wire, &group).is_ok());
    });
    let verify3 = |copies: &[&[u8]]| {
        SignedEnvelope::verify_wire_copies_batch(
            &author_id,
            5,
            copies,
            &group,
            &directory,
            None,
            u64::MAX - 1,
        )
    };
    s.us("integrity.verify_batch3_us", 500, || {
        black_box(verify3(&[&wire, &wire, &wire]));
    });
    // Forged the way the adversary plane forges: bits flipped in the
    // record's leading bytes.
    let mut forged = wire.clone();
    for b in forged.iter_mut().take(8) {
        *b ^= 0xA5;
    }
    s.us("integrity.verify_batch3_one_forged_us", 500, || {
        black_box(verify3(&[&wire, &forged, &wire]));
    });
    // Minted per post: a fresh signing key (and its fixed-base table)
    // wrapped for the commenters group.
    let commenters = SymmetricKey::generate(&mut rng);
    s.us("integrity.relation_keys_us", 200, || {
        black_box(PostRelationKeys::create(
            "layer-author/post/5",
            group.clone(),
            &commenters,
            &mut rng,
        ));
    });
    let mut timeline = Timeline::new(author_id.clone());
    s.us("integrity.timeline_append_us", 500, || {
        black_box(
            timeline
                .append(&author, &ciphertext, vec![], &mut rng)
                .sequence,
        );
    });
}

fn crypto(s: &mut Section<'_>) {
    let group = SchnorrGroup::shared(GroupSize::Toy);
    let mut rng = SecureRng::seed_from_u64(ENGINE_SEED ^ 3);
    let signing = SigningKey::generate(group, &mut rng);
    let verifying = signing.verifying_key().clone();
    let messages: Vec<[u8; 32]> = (0..64u64).map(|i| sha256(&i.to_be_bytes())).collect();
    let signatures: Vec<Signature> = messages.iter().map(|m| signing.sign(m, &mut rng)).collect();
    let mut i = 0usize;
    s.us("crypto.schnorr.sign_us", 500, || {
        black_box(signing.sign(&messages[i % 64], &mut rng));
        i += 1;
    });
    let mut i = 0usize;
    s.us("crypto.schnorr.verify_us", 500, || {
        black_box(
            verifying
                .verify(&messages[i % 64], &signatures[i % 64])
                .is_ok(),
        );
        i += 1;
    });
    let pairs: Vec<(&[u8], &Signature)> = messages
        .iter()
        .map(|m| m.as_slice())
        .zip(&signatures)
        .collect();
    let batch_ns = s.time_ns("crypto.schnorr.batch_verify64_us_per_sig", 5, || {
        black_box(verifying.verify_batch(&pairs).is_ok());
    });
    s.out.insert(
        "crypto.schnorr.batch_verify64_us_per_sig",
        batch_ns / 1e3 / 64.0,
    );

    let aead = SymmetricKey::generate(&mut rng);
    let plaintext = vec![0x42u8; 1024];
    s.us("crypto.aead.seal_1k_us", 2_000, || {
        black_box(aead.seal(&plaintext, b"ad", &mut rng));
    });
    let sealed = aead.seal(&plaintext, b"ad", &mut rng);
    s.us("crypto.aead.open_1k_us", 2_000, || {
        black_box(aead.open(&sealed, b"ad").is_ok());
    });
    let megabyte = vec![0x17u8; 1 << 20];
    let sha_ns = s.time_ns("crypto.sha256.mb_per_s", 4, || {
        black_box(sha256(&megabyte));
    });
    s.out.insert(
        "crypto.sha256.mb_per_s",
        megabyte.len() as f64 / 1e6 / (sha_ns / 1e9),
    );
}

fn bigint(s: &mut Section<'_>) {
    // The Toy group's modulus with dense full-width operands (sparse
    // exponents flatter the window methods).
    let group = SchnorrGroup::shared(GroupSize::Toy);
    let modulus = group.modulus().clone();
    let ctx = ModContext::new(&modulus);
    let part = |d: u64| &modulus / &BigUint::from(d);
    let (base, exp, base2, exp2) = (part(3), part(7), part(5), part(11));
    s.us("bigint.modpow_us", 500, || {
        black_box(ctx.pow(&base, &exp));
    });
    let table = ctx.precompute(&base, modulus.bits());
    s.us("bigint.fixed_base_pow_us", 500, || {
        black_box(table.pow(&exp));
    });
    s.us("bigint.pow_multi2_us", 500, || {
        black_box(ctx.pow_multi(&[(&base, &exp), (&base2, &exp2)]));
    });
}

fn obs(s: &mut Section<'_>, registry: &Registry) {
    let scratch = Registry::new();
    let counter = scratch.counter("layer.counter");
    s.ns("obs.counter_add_ns", 200_000, || {
        counter.add(1);
    });
    let hist = scratch.histogram("layer.hist");
    let mut v = 1u64;
    s.ns("obs.histogram_record_ns", 200_000, || {
        hist.record(v);
        v = v % 10_000 + 7;
    });
    s.us("obs.snapshot_us", 200, || {
        black_box(registry.snapshot());
    });
}
