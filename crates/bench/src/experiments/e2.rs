//! Experiment E2 (survey §III): access-control management costs.
//!
//! Group creation, member addition, and member revocation per scheme, with
//! the survey's headline contrast: symmetric and CP-ABE revocation re-key
//! every remaining member *and* owe re-encryption of all stored history,
//! while PKE and IBBE revocation are free list edits.

use super::{all_schemes, member_names};
use crate::{wall, Run};
use std::hint::black_box;

const GROUP: usize = 16;

pub(super) fn run(run: &mut Run) {
    // Every stored post is one IBBE broadcast to 16 recipients (~0.1 s).
    let history_posts = run.pick(100, 2);
    run.table(
        &format!("E2: revocation cost after {history_posts} posts in a {GROUP}-member group"),
        "scheme | key messages | re-keyed members | posts to re-encrypt",
    );
    for mut scheme in all_schemes(GROUP) {
        let g = scheme.create_group(&member_names(GROUP)).expect("group");
        for i in 0..history_posts {
            scheme
                .encrypt(&g, format!("post {i}").as_bytes())
                .expect("encrypt");
        }
        let cost = scheme.revoke_member(&g, "m3").expect("revoke");
        run.row(&[
            scheme.name().into(),
            cost.key_messages.into(),
            cost.rekeyed_members.into(),
            cost.posts_to_reencrypt.into(),
        ]);
    }

    run.table(
        &format!("E2: member-addition cost in a {GROUP}-member group"),
        "scheme | key messages | re-keyed members",
    );
    for mut scheme in all_schemes(GROUP + 1) {
        let g = scheme.create_group(&member_names(GROUP)).expect("group");
        let cost = scheme
            .add_member(&g, &format!("m{GROUP}"))
            .expect("add member");
        run.row(&[
            scheme.name().into(),
            cost.key_messages.into(),
            cost.rekeyed_members.into(),
        ]);
    }

    run.table("E2: membership operation timings", "operation | ns/op");
    for n in [4usize, 16, 64] {
        for mut scheme in all_schemes(n) {
            let names = member_names(n);
            let ns = run.time_ns(10, || {
                black_box(scheme.create_group(&names).expect("group"));
            });
            let label = format!("create_group/{}/{n}", scheme.name());
            run.row(&[label.into(), wall(ns, 0)]);
        }
    }
    for mut scheme in all_schemes(64) {
        // A fresh group per call (so each revocation is valid), built
        // outside the clock: one warm-up call and at most ten timed ones.
        let names = member_names(64);
        let mut groups: Vec<_> = (0..=10)
            .map(|_| scheme.create_group(&names).expect("group"))
            .collect();
        let ns = run.time_ns(10, || {
            let g = groups.pop().expect("a group per call");
            black_box(scheme.revoke_member(&g, "m1").expect("revoke"));
        });
        let label = format!("revoke_member/{}/64", scheme.name());
        run.row(&[label.into(), wall(ns, 0)]);
    }
}
