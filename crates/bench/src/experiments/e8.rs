//! Experiment E8 (survey §V-A / §III-F): Hummingbird-style blind
//! subscription.
//!
//! Measures the oblivious subscription protocol, per-tweet publish cost,
//! subscriber matching over a stream, and blind-token issuance/redemption —
//! and prints the unlinkability/overhead summary comparing plain vs private
//! subscription.

use crate::{once_ns, wall, Run};
use dosn_core::privacy::{HummingbirdPublisher, HummingbirdSubscriber};
use dosn_core::search::{LeakageAudit, SubscriptionAuthority};
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use std::hint::black_box;

pub(super) fn run(run: &mut Run) {
    let mut rng = SecureRng::seed_from_u64(88);
    let mut publisher = HummingbirdPublisher::new(SchnorrGroup::toy(), &mut rng);

    const TAGS: usize = 16;
    let tweet_count: usize = run.pick(1000, 200);
    let (tweets, publish_ns) = once_ns(|| {
        (0..tweet_count)
            .map(|i| {
                publisher.publish(
                    &format!("#tag{}", i % TAGS),
                    format!("tweet number {i}").as_bytes(),
                    &mut rng,
                )
            })
            .collect::<Vec<_>>()
    });

    // One subscriber, obliviously keyed to #tag3.
    let mut subscribe = |tag: &str| {
        let (blinded, state) =
            HummingbirdSubscriber::subscribe_request(publisher.group(), tag, &mut rng);
        let evaluated = publisher.answer_subscription(&blinded).expect("protocol");
        HummingbirdSubscriber::finish(&state, &evaluated).expect("protocol")
    };
    let sub = subscribe("#tag3");
    let (matched, match_ns) = once_ns(|| tweets.iter().filter(|t| sub.matches(t)).count());
    let opened = tweets
        .iter()
        .filter(|t| sub.matches(t))
        .map(|t| sub.open(t).expect("subscribed"))
        .filter(|body| !body.is_empty())
        .count();
    let subscribe_ns = run.time_ns(10, || {
        black_box(subscribe("#icdcs"));
    });
    let mut token_rng = SecureRng::seed_from_u64(3);
    let mut authority = SubscriptionAuthority::new(SchnorrGroup::toy(), &mut token_rng);
    let token_ns = run.time_ns(10, || {
        let mut audit = LeakageAudit::new();
        let token = authority
            .issue_token_for("alice", &mut token_rng, &mut audit)
            .expect("issue");
        authority.redeem(&token, "nym", &mut audit).expect("redeem");
    });

    run.table(
        &format!("E8: Hummingbird subscription over {tweet_count} tweets, {TAGS} hashtags"),
        "quantity | value",
    );
    run.row(&["publish total (ms)".into(), wall(publish_ns / 1e6, 1)]);
    run.row(&["tweets matching #tag3".into(), matched.into()]);
    run.row(&["matched+decrypted".into(), opened.into()]);
    run.row(&[
        "match scan (ms, handle compare only)".into(),
        wall(match_ns / 1e6, 3),
    ]);
    run.row(&[
        "publisher learned subscriber's tag?".into(),
        "no (OPRF-blinded)".into(),
    ]);
    run.row(&[
        "oblivious subscription (µs)".into(),
        wall(subscribe_ns / 1e3, 1),
    ]);
    run.row(&[
        "blind token issue + redeem (µs)".into(),
        wall(token_ns / 1e3, 1),
    ]);
}
