//! Known-answer vectors for the record layer and key derivation. They pin
//! the wire format and the derived secrets byte for byte, so an
//! optimisation of the crypto underneath cannot silently change either.

use wedge_crypto::sha256::to_hex;
use wedge_tls::{RecordLayer, SessionKeys};

const SEAL_0: &str = "0000000000000000272a3e15d24b041f77c07a6bac34ac3659159a3fac10d826e7f9c301560f4043ca4c2f10905a4150a31ba34084679100909bacd11b0eb34e76eee779";
const SEAL_1: &str = "00000000000000015ab622352ce670cf45e6136e5abe60b74184cc7f85ebc10489b577b979e5565eedeee285ba94bba9114f7dd8a796b174488db957aad954e41ee7e4d34947f010ce00";
const MASTER: &str = "e03cdc21e53c3ef74902a0e9250f41ed7d54a3f5bef21df67f7c67152c7d9feebff199ac432974e484c22b69308a9677";
const FINGERPRINT: &str = "713b6c20f964867933f7fb91352cf5c72306d05e7749ac5c05d0e25fc5483534";

#[test]
fn sealed_records_at_sequence_0_and_1_are_pinned() {
    let mut tx = RecordLayer::new(b"kat-write-key", b"kat-mac-key");
    assert_eq!(
        to_hex(&tx.seal(b"GET /index.html HTTP/1.0\r\n\r\n")),
        SEAL_0
    );
    assert_eq!(
        to_hex(&tx.seal(b"HTTP/1.0 200 OK\r\n\r\n<html>hi</html>")),
        SEAL_1
    );
}

#[test]
fn session_key_derivation_is_pinned() {
    let keys = SessionKeys::derive(b"kat-premaster", b"kat-client-random", b"kat-server-random");
    assert_eq!(to_hex(&keys.master_secret), MASTER);
    assert_eq!(to_hex(&keys.fingerprint()), FINGERPRINT);
}
