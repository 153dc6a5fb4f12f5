//! Property-based tests for the crypto substrate.

use proptest::prelude::*;
use wedge_crypto::{hmac_sha256, sha256, HmacKey, RsaKeyPair, StreamCipher, WedgeRng};

/// The keystream format spelled out byte by byte: byte `p` is byte
/// `p % 32` of `SHA-256(key ‖ (p / 32) as u64 LE)`.
fn per_byte_reference(key: &[u8], data: &[u8]) -> Vec<u8> {
    data.iter()
        .enumerate()
        .map(|(p, byte)| {
            let mut block_input = key.to_vec();
            block_input.extend_from_slice(&((p / 32) as u64).to_le_bytes());
            byte ^ sha256(&block_input)[p % 32]
        })
        .collect()
}

/// RFC 2104 written out with one-shot hashes of concatenations.
fn hmac_reference(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut key_block = if key.len() > 64 {
        sha256(key).to_vec()
    } else {
        key.to_vec()
    };
    key_block.resize(64, 0);
    let mut inner: Vec<u8> = key_block.iter().map(|k| k ^ 0x36).collect();
    inner.extend_from_slice(message);
    let mut outer: Vec<u8> = key_block.iter().map(|k| k ^ 0x5c).collect();
    outer.extend_from_slice(&sha256(&inner));
    sha256(&outer)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sha256_is_deterministic_and_length_32(data in prop::collection::vec(any::<u8>(), 0..2048)) {
        let a = sha256(&data);
        let b = sha256(&data);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.len(), 32);
    }

    #[test]
    fn sha256_streaming_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..4096), split in 0usize..4096) {
        let split = split.min(data.len());
        let mut h = wedge_crypto::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hmac_detects_any_single_bit_flip(
        key in prop::collection::vec(any::<u8>(), 1..64),
        msg in prop::collection::vec(any::<u8>(), 1..256),
        byte_idx in 0usize..256,
        bit in 0u8..8,
    ) {
        let tag = hmac_sha256(&key, &msg);
        let mut tampered = msg.clone();
        let idx = byte_idx % tampered.len();
        tampered[idx] ^= 1 << bit;
        if tampered != msg {
            prop_assert_ne!(hmac_sha256(&key, &tampered), tag);
        }
    }

    #[test]
    fn rsa_roundtrips_arbitrary_messages(seed in 1u64..500, msg in prop::collection::vec(any::<u8>(), 0..256)) {
        let kp = RsaKeyPair::generate(&mut WedgeRng::from_seed(seed));
        let ct = kp.public.encrypt(&msg);
        let pt = kp.private.decrypt(&ct).unwrap();
        prop_assert_eq!(pt, msg);
    }

    #[test]
    fn rsa_signatures_verify_and_tampered_ones_do_not(
        seed in 1u64..200,
        msg in prop::collection::vec(any::<u8>(), 1..128),
        flip in 0usize..1024,
    ) {
        let kp = RsaKeyPair::generate(&mut WedgeRng::from_seed(seed));
        let digest = sha256(&msg);
        let sig = kp.private.sign_digest(&digest);
        prop_assert!(kp.public.verify_digest(&digest, &sig).is_ok());
        let mut bad = sig.clone();
        let idx = flip % bad.len();
        bad[idx] ^= 0x55;
        if bad != sig {
            prop_assert!(kp.public.verify_digest(&digest, &bad).is_err());
        }
    }

    #[test]
    fn stream_cipher_roundtrips(key in prop::collection::vec(any::<u8>(), 1..64), msgs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128), 1..8)) {
        let mut enc = StreamCipher::new(&key);
        let mut dec = StreamCipher::new(&key);
        for msg in &msgs {
            let ct = enc.process(msg);
            let pt = dec.process(&ct);
            prop_assert_eq!(&pt, msg);
        }
    }

    #[test]
    fn chunked_apply_equals_whole_apply_equals_per_byte_reference(
        key in prop::collection::vec(any::<u8>(), 0..64),
        data in prop::collection::vec(any::<u8>(), 0..300),
        cuts in prop::collection::vec(0usize..300, 0..6),
    ) {
        let mut whole = data.clone();
        StreamCipher::new(&key).apply(&mut whole);

        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
        cuts.sort_unstable();
        let mut chunked = data.clone();
        let mut cipher = StreamCipher::new(&key);
        let mut start = 0;
        for end in cuts.into_iter().chain([data.len()]) {
            cipher.apply(&mut chunked[start..end]);
            start = end;
        }
        prop_assert_eq!(cipher.position(), data.len() as u64);
        prop_assert_eq!(&chunked, &whole);
        prop_assert_eq!(&whole, &per_byte_reference(&key, &data));
    }

    #[test]
    fn keyed_hmac_equals_one_shot_and_reference(
        key in prop::collection::vec(any::<u8>(), 0..200),
        msgs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..160), 1..4),
    ) {
        let keyed = HmacKey::new(&key);
        for msg in &msgs {
            let tag = keyed.mac(msg);
            prop_assert_eq!(tag, hmac_sha256(&key, msg));
            prop_assert_eq!(tag, hmac_reference(&key, msg));
        }
    }

    #[test]
    fn kdf_collision_free_over_premaster(pm1 in prop::collection::vec(any::<u8>(), 1..64), pm2 in prop::collection::vec(any::<u8>(), 1..64)) {
        prop_assume!(pm1 != pm2);
        let a = wedge_crypto::derive_key_block(&pm1, b"cr", b"sr");
        let b = wedge_crypto::derive_key_block(&pm2, b"cr", b"sr");
        prop_assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
