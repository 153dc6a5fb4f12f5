//! Known-answer vectors for the record cipher. They pin the keystream
//! format byte for byte, which a round-trip property cannot: both ends of a
//! round trip change together.

use wedge_crypto::sha256::to_hex;
use wedge_crypto::StreamCipher;

const KEY: &[u8] = b"wedge-kat-key";

fn plaintext(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(7).wrapping_add(3))
        .collect()
}

const CT_1: &str = "f8";
const CT_120: &str = "f84b35112c8ad0a71c8c7f88c4cf31c0569809e225efb43b37e6f801fbb01d136dc1c77ca69b68f51701c47851358a17bc7fe66b3a52085ff7b344b31f1abebbf401975bb46366e7a072b523695366fbf1423afd80f0441b7e8209d81bf1634461e4b35c14d70861a37807ec7ac632140390b2a6661a0816";

#[test]
fn empty_input_encrypts_to_nothing() {
    let mut c = StreamCipher::new(KEY);
    assert_eq!(to_hex(&c.process(&[])), "");
    assert_eq!(c.position(), 0);
}

#[test]
fn one_byte_known_answer() {
    let mut c = StreamCipher::new(KEY);
    assert_eq!(to_hex(&c.process(&plaintext(1))), CT_1);
}

#[test]
fn one_hundred_twenty_byte_known_answer() {
    let mut c = StreamCipher::new(KEY);
    assert_eq!(to_hex(&c.process(&plaintext(120))), CT_120);
}

#[test]
fn uneven_three_call_split_matches_the_whole_known_answer() {
    let mut c = StreamCipher::new(KEY);
    let mut data = plaintext(120);
    let (a, rest) = data.split_at_mut(5);
    let (b, d) = rest.split_at_mut(70);
    c.apply(a);
    c.apply(b);
    c.apply(d);
    assert_eq!(c.position(), 120);
    assert_eq!(to_hex(&data), CT_120);
}
