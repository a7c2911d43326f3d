//! Known-answer tests pinning the hand-rolled primitives to their
//! published vectors: SHA-256 (FIPS 180-4 / NIST CAVP), HMAC-SHA-256
//! (RFC 4231), HKDF-SHA-256 (RFC 5869), and ChaCha20 (RFC 8439). A wrong
//! constant anywhere in the compression/rounds shows up here, not three
//! layers up in a privacy-scheme test. The SHA-256 vectors run on
//! whichever compression the host picks (the SHA-extension kernel where the
//! CPU has it, the portable one elsewhere). The last test pins this crate's
//! own Schnorr bytes and batch verdicts for a seeded key.

use dosn_crypto::chacha::chacha20_xor;
use dosn_crypto::hmac::{hkdf, hkdf_extract, hmac_sha256, HmacSha256};
use dosn_crypto::sha256::{sha256, Sha256};

fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

// ---------------------------------------------------------------------------
// SHA-256 — FIPS 180-4 examples and the NIST long-message vector
// ---------------------------------------------------------------------------

#[test]
fn sha256_fips_vectors() {
    let cases: &[(&[u8], &str)] = &[
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];
    for (msg, expect) in cases {
        assert_eq!(sha256(msg).to_vec(), unhex(expect), "msg len {}", msg.len());
    }
}

#[test]
fn sha256_million_a() {
    let mut h = Sha256::new();
    let chunk = [b'a'; 1000];
    for _ in 0..1000 {
        h.update(&chunk);
    }
    assert_eq!(
        h.finalize().to_vec(),
        unhex("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
    );
}

#[test]
fn sha256_streaming_matches_one_shot() {
    let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    for split in [0, 1, 31, 32, 33, msg.len()] {
        let mut h = Sha256::new();
        h.update(&msg[..split]);
        h.update(&msg[split..]);
        assert_eq!(h.finalize(), sha256(msg), "split at {split}");
    }
}

// ---------------------------------------------------------------------------
// HMAC-SHA-256 — RFC 4231 test cases 1-7
// ---------------------------------------------------------------------------

#[test]
fn hmac_sha256_rfc4231_vectors() {
    // (key, data, full 32-byte tag)
    let cases: &[(Vec<u8>, Vec<u8>, &str)] = &[
        // Case 1
        (
            vec![0x0b; 20],
            b"Hi There".to_vec(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        // Case 2: key shorter than block
        (
            b"Jefe".to_vec(),
            b"what do ya want for nothing?".to_vec(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        // Case 3: combined key/data longer than block
        (
            vec![0xaa; 20],
            vec![0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        // Case 4
        (
            (0x01..=0x19).collect(),
            vec![0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
        // Case 6: key larger than block (hashed first)
        (
            vec![0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        // Case 7: key and data both larger than block
        (
            vec![0xaa; 131],
            b"This is a test using a larger than block-size key and a larger t\
              han block-size data. The key needs to be hashed before being use\
              d by the HMAC algorithm."
                .to_vec(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ];
    for (i, (key, data, expect)) in cases.iter().enumerate() {
        assert_eq!(
            hmac_sha256(key, data).to_vec(),
            unhex(expect),
            "RFC 4231 case {}",
            i + 1
        );
        // Streaming API must agree byte-for-byte.
        let mut mac = HmacSha256::new(key);
        let split = data.len() / 2;
        mac.update(&data[..split]);
        mac.update(&data[split..]);
        assert_eq!(mac.finalize().to_vec(), unhex(expect));
    }
}

#[test]
fn hmac_sha256_rfc4231_truncated_case5() {
    // Case 5 publishes only the first 128 bits of the tag.
    let tag = hmac_sha256(&[0x0c; 20], b"Test With Truncation");
    assert_eq!(
        tag[..16].to_vec(),
        unhex("a3b6167473100ee06e0c796c2955552b")
    );
}

// ---------------------------------------------------------------------------
// HKDF-SHA-256 — RFC 5869 appendix A
// ---------------------------------------------------------------------------

#[test]
fn hkdf_sha256_rfc5869_case1() {
    let ikm = vec![0x0b; 22];
    let salt = unhex("000102030405060708090a0b0c");
    let info = unhex("f0f1f2f3f4f5f6f7f8f9");
    let prk = hkdf_extract(&salt, &ikm);
    assert_eq!(
        prk.to_vec(),
        unhex("077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
    );
    let okm = hkdf(&salt, &ikm, &info, 42);
    assert_eq!(
        okm,
        unhex(
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
             34007208d5b887185865"
        )
    );
}

#[test]
fn hkdf_sha256_rfc5869_case3_empty_salt_and_info() {
    let ikm = vec![0x0b; 22];
    let okm = hkdf(&[], &ikm, &[], 42);
    assert_eq!(
        okm,
        unhex(
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
             9d201395faa4b61a96c8"
        )
    );
}

// ---------------------------------------------------------------------------
// ChaCha20 — RFC 8439
// ---------------------------------------------------------------------------

#[test]
fn chacha20_rfc8439_section_2_4_2_encryption() {
    let key: [u8; 32] = unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
        .try_into()
        .unwrap();
    let nonce: [u8; 12] = unhex("000000000000004a00000000").try_into().unwrap();
    let mut buf = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it."
        .to_vec();
    chacha20_xor(&key, &nonce, 1, &mut buf);
    let expect = unhex(
        "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
         f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
         07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
         5af90bbf74a35be6b40b8eedf2785e42874d",
    );
    assert_eq!(buf, expect);
    // Decryption is the same operation.
    chacha20_xor(&key, &nonce, 1, &mut buf);
    assert!(buf.starts_with(b"Ladies and Gentlemen"));
}

#[test]
fn chacha20_rfc8439_appendix_a1_keystream() {
    // Vector #1: zero key, zero nonce, counter 0 — XOR over zeros exposes
    // the raw keystream.
    let key = [0u8; 32];
    let nonce = [0u8; 12];
    let mut buf = vec![0u8; 64];
    chacha20_xor(&key, &nonce, 0, &mut buf);
    assert_eq!(
        buf,
        unhex(
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7\
             da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
        )
    );
}

#[test]
fn chacha20_rfc8439_appendix_a1_vector2_counter_one() {
    // Vector #2: zero key, zero nonce, counter 1 — checks the counter word
    // is placed (and incremented from) the right state slot.
    let key = [0u8; 32];
    let nonce = [0u8; 12];
    let mut buf = vec![0u8; 64];
    chacha20_xor(&key, &nonce, 1, &mut buf);
    assert_eq!(
        buf,
        unhex(
            "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed\
             29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f"
        )
    );
}

// ---------------------------------------------------------------------------
// Schnorr — not a published vector: bytes and verdicts captured at commit
// 68afb98, when every public key still got its own fixed-base table. They pin
// that serving `y^e` from a windowed pow instead changes no value.
// ---------------------------------------------------------------------------

#[test]
fn schnorr_seeded_signature_and_batch_verdict_are_pinned() {
    use dosn_crypto::batch::{batch_verify, BatchFailure};
    use dosn_crypto::chacha::SecureRng;
    use dosn_crypto::group::SchnorrGroup;
    use dosn_crypto::schnorr::{Signature, SigningKey};

    let group = SchnorrGroup::toy();
    let sk = SigningKey::from_seed(group.clone(), b"one table per group");
    let vk = sk.verifying_key();
    let mut rng = SecureRng::seed_from_u64(15);
    let msgs: [&[u8]; 3] = [b"wall/alice/0", b"wall/alice/1", b"wall/alice/2"];
    let sigs: Vec<Signature> = msgs.iter().map(|m| sk.sign(m, &mut rng)).collect();

    assert_eq!(
        group.element_bytes(vk.element()),
        unhex("40eaf1edc30fe809ba060147d07b3468ef88443da674e1cbfdea3bb2e6f1fd7c")
    );
    assert_eq!(
        sigs[0].to_bytes(&group),
        unhex(
            "66ed024552d7831bead49082c3a57e0e5e6c70d0b056cfef011da46f99478067\
             5b3964f22ac98d7e8873eeb8d5f128e03435e6cf56680427f2138343ed41a18b"
        )
    );
    assert_eq!(
        sigs[2].to_bytes(&group),
        unhex(
            "3b457cc4ebbaca7d270925dc1d2d130337d4b45d8d7cb1c7ba8cb2a44f3f7e6f\
             536aead5b50ef3d9c9cc0102136c3e15175a9242b2b63bb5d4e84829a0aca889"
        )
    );

    for (m, s) in msgs.iter().zip(&sigs) {
        assert_eq!(vk.verify(m, s), Ok(()));
    }
    assert!(vk.verify(msgs[1], &sigs[0]).is_err());

    let items = [
        (vk, msgs[0], &sigs[0]),
        (vk, msgs[1], &sigs[1]),
        (vk, msgs[2], &sigs[2]),
    ];
    assert_eq!(batch_verify(&items), Ok(()));
    // One forged item: the RLC check fails and bisection names exactly it.
    let forged = [
        items[0],
        (vk, b"wall/mallory/1".as_slice(), &sigs[1]),
        items[2],
    ];
    assert_eq!(batch_verify(&forged), Err(BatchFailure { failed: vec![1] }));
}
