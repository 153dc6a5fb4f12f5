//! Counter-mode keystream cipher built from SHA-256.
//!
//! The SSL record layer in the reproduction encrypts application data with
//! this cipher plus an HMAC. As with the rest of this crate, the goal is a
//! faithful *structure* (symmetric key shared by both record endpoints,
//! keystream independent of plaintext, same key ⇒ same keystream), not real
//! confidentiality.

use crate::sha256::{Sha256, DIGEST_LEN};

#[cfg(test)]
thread_local! {
    /// Keystream blocks hashed on this thread (tests pin the count).
    static BLOCKS_COMPUTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A symmetric keystream cipher. Encryption and decryption are the same
/// operation (XOR with the keystream at the current offset).
#[derive(Debug, Clone)]
pub struct StreamCipher {
    key: Vec<u8>,
    /// Absolute keystream position (bytes consumed so far).
    position: u64,
}

impl StreamCipher {
    /// Create a cipher from a symmetric key.
    pub fn new(key: &[u8]) -> Self {
        StreamCipher {
            key: key.to_vec(),
            position: 0,
        }
    }

    /// Bytes of keystream consumed so far.
    pub fn position(&self) -> u64 {
        self.position
    }

    fn keystream_block(&self, block_index: u64) -> [u8; DIGEST_LEN] {
        #[cfg(test)]
        BLOCKS_COMPUTED.with(|n| n.set(n.get() + 1));
        let mut h = Sha256::new();
        h.update(&self.key);
        h.update(&block_index.to_le_bytes());
        h.finalize()
    }

    /// XOR `data` with the keystream in place, advancing the position.
    /// Each keystream block is hashed once and XORed over the whole run
    /// of bytes it covers.
    pub fn apply(&mut self, data: &mut [u8]) {
        let block_len = DIGEST_LEN as u64;
        let mut rest = data;
        while !rest.is_empty() {
            let offset = (self.position % block_len) as usize;
            let ks = self.keystream_block(self.position / block_len);
            let take = (DIGEST_LEN - offset).min(rest.len());
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(take);
            for (byte, k) in run.iter_mut().zip(&ks[offset..]) {
                *byte ^= k;
            }
            self.position += run.len() as u64;
            rest = tail;
        }
    }

    /// Encrypt (or decrypt) a buffer, returning a new vector.
    pub fn process(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply(&mut out);
        out
    }

    /// Reset the keystream position to zero (used when both endpoints agree
    /// to restart numbering, e.g. per record in the simplified record layer).
    pub fn reset(&mut self) {
        self.position = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_matching_positions() {
        let mut enc = StreamCipher::new(b"session-key");
        let mut dec = StreamCipher::new(b"session-key");
        let msg = b"GET /index.html HTTP/1.0\r\n\r\n";
        let ct = enc.process(msg);
        assert_ne!(&ct[..], &msg[..]);
        let pt = dec.process(&ct);
        assert_eq!(pt, msg);
    }

    #[test]
    fn multiple_records_stay_in_sync() {
        let mut enc = StreamCipher::new(b"k");
        let mut dec = StreamCipher::new(b"k");
        for i in 0..10 {
            let msg = format!("record number {i} with some payload");
            let ct = enc.process(msg.as_bytes());
            let pt = dec.process(&ct);
            assert_eq!(pt, msg.as_bytes());
        }
        assert_eq!(enc.position(), dec.position());
    }

    #[test]
    fn wrong_key_garbles() {
        let mut enc = StreamCipher::new(b"right-key");
        let mut dec = StreamCipher::new(b"wrong-key");
        let ct = enc.process(b"confidential");
        assert_ne!(dec.process(&ct), b"confidential");
    }

    #[test]
    fn keystream_differs_across_positions() {
        let mut c = StreamCipher::new(b"k");
        let a = c.process(&[0u8; 64]);
        let b = c.process(&[0u8; 64]);
        assert_ne!(a, b, "keystream must not repeat across positions");
    }

    #[test]
    fn reset_restarts_keystream() {
        let mut c = StreamCipher::new(b"k");
        let a = c.process(&[0u8; 16]);
        c.reset();
        let b = c.process(&[0u8; 16]);
        assert_eq!(a, b);
    }

    #[test]
    fn each_keystream_block_is_hashed_once() {
        for n in 0..=200usize {
            let before = BLOCKS_COMPUTED.with(|c| c.get());
            StreamCipher::new(b"k").process(&vec![0u8; n]);
            let hashed = BLOCKS_COMPUTED.with(|c| c.get()) - before;
            assert_eq!(hashed, n.div_ceil(DIGEST_LEN) as u64, "{n} bytes");
        }
    }

    #[test]
    fn empty_input_is_noop() {
        let mut c = StreamCipher::new(b"k");
        assert!(c.process(b"").is_empty());
        assert_eq!(c.position(), 0);
    }
}
