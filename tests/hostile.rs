//! Hostile input through the whole stack: what one peer controls must not
//! let it stall or break the peers that read it, or grow what they keep.

use std::time::{Duration, Instant};

use dosn::core::content::Post;
use dosn::core::engine::{Engine, OpBatch, OpOutput};
use dosn::core::network::{ChordPlane, ReplicatedStore};
use dosn::core::DosnError;
use dosn::overlay::id::Key;
use dosn::overlay::metrics::Metrics;

/// A post body of exactly `len` bytes: plain text with multibyte characters
/// and the characters JSON escapes (quotes, backslashes, newlines, tabs).
fn hostile_body(len: usize) -> String {
    const PATTERN: &str = "a long post \u{e9}\u{20ac}\u{1f600} \"quoted\" back\\slash\n\ttab ";
    let mut body = PATTERN.repeat(len / PATTERN.len() + 1);
    let cut = (0..=len).rev().find(|&i| body.is_char_boundary(i)).unwrap();
    body.truncate(cut);
    body.extend(std::iter::repeat_n('.', len - cut));
    body
}

#[test]
fn a_four_mib_post_reads_back_whole_and_in_linear_time() {
    // The author picks the body's size; every friend who reads the post
    // decodes all of it. A decoder quadratic in the body (as the JSON string
    // decoder once was) takes minutes at this size.
    let body = hostile_body(4 << 20);
    assert_eq!(body.len(), 4 << 20);
    let mut e = Engine::new(ReplicatedStore::new(ChordPlane::build(24, 7), 3), 7);
    let setup = OpBatch::new()
        .register("author")
        .register("friend")
        .befriend("author", "friend", 0.9)
        .post("author", &body);
    assert!(e.execute(setup).results.iter().all(Result::is_ok));

    let start = Instant::now();
    let report = e.execute(OpBatch::new().read_post("friend", "author", 0));
    let took = start.elapsed();
    match &report.results[..] {
        [Ok(OpOutput::Read { body: got })] => assert!(*got == body, "body changed in transit"),
        other => panic!("read: {other:?}"),
    }
    assert!(took < Duration::from_secs(20), "read took {took:?}");
}

/// Whether `bytes` is refused as a malformed post.
fn refused(bytes: &[u8]) -> bool {
    matches!(
        Post::from_bytes(bytes),
        Err(DosnError::MalformedEnvelope(_))
    )
}

#[test]
fn the_post_codec_refuses_hostile_bytes_with_a_typed_error() {
    // A post's bytes come out of a ciphertext the author chose: every
    // malformed shape is an error, never a panic or an allocation sized
    // by a length field.
    let post = Post::new("author", 7, 9, hostile_body(300));
    let wire = post.to_bytes().unwrap();
    assert_eq!(Post::from_bytes(&wire), Ok(post));
    // `author_len(4) | author(6) | sequence(8) | created_at(8) | body_len(4) | body`.
    let body_len_at = 4 + 6 + 16;
    for len in 0..wire.len() {
        assert!(refused(&wire[..len]), "truncated to {len} bytes");
    }
    for at in [0, body_len_at] {
        let mut huge = wire.clone();
        huge[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(refused(&huge), "u32::MAX length at {at}");
    }
    let mut trailing = wire.clone();
    trailing.push(0);
    assert!(refused(&trailing));
    for at in [4, body_len_at + 4] {
        let mut bad = wire.clone();
        bad[at] = 0xFF;
        assert!(refused(&bad), "invalid UTF-8 at {at}");
    }
}

#[test]
fn a_key_rewritten_ten_thousand_times_holds_one_value() {
    // A peer that keeps re-storing one key with new bytes: every overwrite
    // must free the bytes it replaces, so the plane holds the latest value
    // and nothing of the 9,999 before it.
    const VALUE: usize = 1024;
    let mut store = ReplicatedStore::new(ChordPlane::build(16, 7), 3);
    let mut m = Metrics::new();
    let key = Key::hash(b"rewritten");
    for i in 0..10_000u32 {
        let mut value = vec![0u8; VALUE];
        value[..4].copy_from_slice(&i.to_be_bytes());
        store.put(key, value, &mut m).unwrap();
        if i % 1_000 == 999 {
            let bytes = store.plane().memory_bytes();
            assert!(bytes < 4 * VALUE, "{bytes} bytes after {} puts", i + 1);
        }
    }
    assert_eq!(store.get(key, &mut m).unwrap()[..4], 9_999u32.to_be_bytes());
}
