//! Experiment E1 (survey §III): data-privacy scheme comparison.
//!
//! Ciphertext size for a 1 KiB post per scheme and group size. Expected
//! shape (per the survey's qualitative claims): symmetric ciphertexts are
//! O(1), pke/ibbe grow O(n) with the audience, cp-abe O(policy). The
//! schemes' encrypt/decrypt latency is E18's `privacy.*.{encrypt,decrypt}_us`.

use super::{all_schemes, member_names, post_payload};
use crate::{Cell, Run};

pub(super) fn run(run: &mut Run) {
    // IBBE at n=64 costs ~64 Cocks encryptions per post — that IS the
    // result, but it is left out of the `--fast` sweep.
    let sizes: &[usize] = run.pick(&[1, 4, 16, 64], &[1, 4, 16]);
    let header: Vec<String> = sizes.iter().map(|n| format!(" | n={n}")).collect();
    let mut rows: Vec<Vec<Cell>> = Vec::new();
    for &n in sizes {
        for (row, scheme) in all_schemes(n).iter_mut().enumerate() {
            let g = scheme.create_group(&member_names(n)).expect("group");
            let ct = scheme.encrypt(&g, &post_payload()).expect("encrypt");
            if rows.len() <= row {
                rows.push(vec![scheme.name().into()]);
            }
            rows[row].push(ct.size_bytes().into());
        }
    }
    run.table(
        "E1: ciphertext size (bytes) for a 1 KiB post vs group size",
        &format!("scheme{}", header.concat()),
    );
    for r in &rows {
        run.row(r);
    }
}
