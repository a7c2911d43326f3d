//! Hostile input through the whole stack: what one peer controls must not
//! let it stall or break the peers that read it.

use std::time::{Duration, Instant};

use dosn::core::engine::{Engine, OpBatch, OpOutput};
use dosn::core::network::{ChordPlane, ReplicatedStore};

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
