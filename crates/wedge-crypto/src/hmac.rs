//! HMAC-SHA-256 (RFC 2104). Used for the SSL record-layer MAC and for the
//! key-derivation PRF.

use crate::sha256::{sha256, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// An HMAC-SHA-256 key with both pads already absorbed: the inner and outer
/// hash states after `key ⊕ ipad` and `key ⊕ opad`. Callers that MAC many
/// messages under one key (the KDF's `P_hash` chain) pad and hash the key
/// once instead of once per message.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Absorb `key` (hashed first if longer than one block, per RFC 2104).
    pub fn new(key: &[u8]) -> HmacKey {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let hashed = sha256(key);
            key_block[..DIGEST_LEN].copy_from_slice(&hashed);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// Compute `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let inner_digest = inner.finalize();

        let mut outer = self.outer.clone();
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Compute `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(message)
}

/// Verify an HMAC tag without early exit on mismatching content.
pub fn hmac_verify(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
    let expected = hmac_sha256(key, message);
    crate::ct_eq(&expected, tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_eq!(
            to_hex(&hmac_sha256(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            to_hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            to_hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            to_hex(&hmac_sha256(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"msg");
        assert!(hmac_verify(b"k", b"msg", &tag));
        assert!(!hmac_verify(b"k", b"msg2", &tag));
        assert!(!hmac_verify(b"k2", b"msg", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!hmac_verify(b"k", b"msg", &bad));
    }
}
