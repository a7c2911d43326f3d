//! Precomputed safe primes for the built-in [`super::SchnorrGroup`] sizes.
//!
//! All values were generated with this workspace's own
//! [`dosn_bigint::gen_safe_prime`] from fixed seeds (`0x20150601` /
//! `0x20150602`) and are re-verified prime by the test suite (the
//! 1024/2048-bit checks run under `--ignored` because Miller–Rabin at that
//! size is slow).

/// 256-bit safe prime (tests only).
pub(super) const P256_HEX: &str =
    "cb6d1172bca83d5178383e45febe0e4e14912dc634a8cf8803cc0b7eff29421b";

/// 512-bit safe prime.
pub(super) const P512_HEX: &str =
    "f081374108972edf4e31f1f50911300eede9b223dc537719da9fc3b56e36ac05\
     bacb578af47e1806db6b0f7ff8b0684478419cb2fbeaf60b121e7ff3a0a3e9c7";

/// 1024-bit safe prime.
pub(super) const P1024_HEX: &str =
    "eb09d83661c64127680f69b4680c56ec88e9d4ad47903ca391e11316b5646324\
     93ae64494fe3620bbb8360be21c476ca6e86a58350e1f7f6aa67e9a67c6ea69f\
     cc349a1babc8602f6cb8ec9eb56253f0b3394b514d3df927f19702451e324575\
     6b895ecfa918da938c2d23e36e4fd1486b940b494a94ef58860df416b2f322af";

/// 2048-bit safe prime.
pub(super) const P2048_HEX: &str =
    "f4ea00076f3019fa3205c257369947b7abb21f9755f6132cb16f6e85611297c6\
     ad5b66e44c32c4d8d5c25cb46e7b5d17a5c07b4d92eecfd5efffcbabffcb5d02\
     2bdd8d5f2eaca52ee9388b0e1f95c846d27f28588c020164d73b241ad887949f\
     74ab15a6b5d9b3e5b6000832fc4d7b49f38a5f184cde600a5d052f6ffb984ae5\
     ff214ae544cc6240feb3297a693cae09773397ed2e94203be63bc2306266a084\
     9942e5e395efbb135dd12962be98bfb3ba1f54af34b8cfe6e2ad6069fdb0c38e\
     b08ec0981e197b0f8bcf1ccd1daecdc14d6e6292e850a2328f9d49fa848c7966\
     59b7d020154526c859454fc45ac63ea84161a5d7230ff5616bfbdff7ebbc2477";
