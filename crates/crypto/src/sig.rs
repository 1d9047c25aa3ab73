//! Schnorr signatures over `GF(2¹²⁷ − 1)` with deterministic nonces.
//!
//! Scheme (see the crate-level simulation-grade caveat):
//!
//! * keygen: secret `x ∈ Z_{p−1}`, public `y = g^x`.
//! * sign(m): `k = HMAC(x, m) mod (p−1)` (RFC 6979-flavoured), `r = g^k`,
//!   `e = H(r ‖ y ‖ m) mod (p−1)`, `s = k − e·x mod (p−1)`; signature `(e, s)`.
//! * verify: `r' = g^s·y^e`, accept iff `H(r' ‖ y ‖ m) ≡ e`.
//!
//! Binding the public key into the challenge hash prevents trivial
//! cross-key signature replay, which matters for transfer tokens
//! (`gm-grid::token`).
//!
//! `g^k` and `g^s` come from the generator's compile-time comb; `y^e`
//! from a windowed exponentiation, or from the key's own comb when a
//! [`PreparedKey`] checks many signatures under one key.

use crate::field::{self, Comb};
use crate::hmac::HmacKey;
use crate::sha256::{sha256, Sha256};

/// A secret signing key.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    x: u128,
    /// `x` as the HMAC key that derives nonces.
    nonce_key: HmacKey,
}

/// A public verification key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PublicKey {
    y: u128,
}

/// A signing/verification key pair.
#[derive(Clone)]
pub struct Keypair {
    /// The secret half.
    pub secret: SecretKey,
    /// The public half.
    pub public: PublicKey,
}

/// A Schnorr signature `(e, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    e: u128,
    s: u128,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecretKey(<redacted>)")
    }
}

fn hash_to_scalar(parts: &[&[u8]]) -> u128 {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    let digest = h.finalize();
    let mut b = [0u8; 16];
    b.copy_from_slice(&digest[..16]);
    u128::from_be_bytes(b) % field::GROUP_ORDER
}

impl Keypair {
    /// Derive a key pair deterministically from 32 bytes of seed material.
    pub fn from_seed(seed: &[u8]) -> Keypair {
        let digest = sha256(seed);
        let mut b = [0u8; 16];
        b.copy_from_slice(&digest[..16]);
        // Ensure a non-trivial secret.
        let x = (u128::from_be_bytes(b) % (field::GROUP_ORDER - 2)) + 1;
        Keypair {
            secret: SecretKey {
                x,
                nonce_key: HmacKey::new(&x.to_be_bytes()),
            },
            public: PublicKey { y: field::pow_g(x) },
        }
    }

    /// Sign a message with this key pair's secret key.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.secret.sign(message, &self.public)
    }
}

impl SecretKey {
    /// Sign `message`. `public` must be the matching public key (it is
    /// bound into the challenge).
    pub fn sign(&self, message: &[u8], public: &PublicKey) -> Signature {
        // Deterministic nonce from the secret key and message.
        let k_mac = self.nonce_key.mac(message);
        let mut kb = [0u8; 16];
        kb.copy_from_slice(&k_mac[..16]);
        let k = (u128::from_be_bytes(kb) % (field::GROUP_ORDER - 2)) + 1;

        let r = field::pow_g(k);
        let e = hash_to_scalar(&[&r.to_be_bytes(), &public.y.to_be_bytes(), message]);
        let s = field::scalar_sub(k, field::scalar_mul(e, self.x));
        Signature { e, s }
    }
}

impl PublicKey {
    /// Verify `sig` over `message` against this public key.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        self.verify_with(message, sig, |s, e| field::pow_g_mul_pow(s, self.y, e))
    }

    /// Verify with `r(s, e) = g^s·y^e` supplied by the caller.
    fn verify_with(
        &self,
        message: &[u8],
        sig: &Signature,
        r: impl FnOnce(u128, u128) -> u128,
    ) -> bool {
        if sig.e >= field::GROUP_ORDER || sig.s >= field::GROUP_ORDER {
            return false;
        }
        let r = r(sig.s, sig.e);
        let e = hash_to_scalar(&[&r.to_be_bytes(), &self.y.to_be_bytes(), message]);
        e == sig.e
    }

    /// Serialize as 16 big-endian bytes.
    pub fn to_bytes(&self) -> [u8; 16] {
        self.y.to_be_bytes()
    }

    /// Deserialize from 16 big-endian bytes. Rejects non-canonical values.
    pub fn from_bytes(b: &[u8; 16]) -> Option<PublicKey> {
        let y = u128::from_be_bytes(*b);
        if y == 0 || y >= field::P {
            return None;
        }
        Some(PublicKey { y })
    }

    /// A short hex fingerprint (first 8 bytes of SHA-256 of the key).
    pub fn fingerprint(&self) -> String {
        let d = sha256(&self.to_bytes());
        crate::sha256::hex(&d[..8])
    }
}

/// A public key with a fixed-base comb for `y`, for a key that verifies many
/// signatures: each check is then two 32-multiply comb lookups instead of
/// a comb lookup riding along a ~170-multiply windowed exponentiation.
/// Building one takes 480 multiplies and 8 KiB.
pub struct PreparedKey {
    public: PublicKey,
    y_comb: Box<Comb>,
}

impl PreparedKey {
    /// Build the comb for `public`.
    pub fn new(public: PublicKey) -> PreparedKey {
        PreparedKey {
            public,
            y_comb: Box::new(Comb::new(public.y)),
        }
    }

    /// Same answer as [`PublicKey::verify`], through the cached table.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        self.public.verify_with(message, sig, |s, e| {
            field::mul(field::pow_g(s), self.y_comb.pow(e))
        })
    }
}

impl Signature {
    /// Serialize as 32 bytes (`e ‖ s`, big-endian).
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[..16].copy_from_slice(&self.e.to_be_bytes());
        out[16..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Deserialize from 32 bytes. Rejects out-of-range scalars.
    pub fn from_bytes(b: &[u8; 32]) -> Option<Signature> {
        let mut eb = [0u8; 16];
        let mut sb = [0u8; 16];
        eb.copy_from_slice(&b[..16]);
        sb.copy_from_slice(&b[16..]);
        let e = u128::from_be_bytes(eb);
        let s = u128::from_be_bytes(sb);
        if e >= field::GROUP_ORDER || s >= field::GROUP_ORDER {
            return None;
        }
        Some(Signature { e, s })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::hmac_sha256;
    use crate::sha256::hex;
    use gm_des::{Rng64, SplitMix64};

    fn kp(seed: &[u8]) -> Keypair {
        Keypair::from_seed(seed)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let keys = kp(b"user-alpha");
        let sig = keys.sign(b"transfer 100 credits to broker");
        assert!(keys.public.verify(b"transfer 100 credits to broker", &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let keys = kp(b"user-beta");
        let sig = keys.sign(b"amount=100");
        assert!(!keys.public.verify(b"amount=999", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let a = kp(b"alice");
        let b = kp(b"bob");
        let sig = a.sign(b"hello");
        assert!(!b.public.verify(b"hello", &sig));
    }

    #[test]
    fn signature_is_deterministic() {
        let keys = kp(b"carol");
        let s1 = keys.sign(b"msg");
        let s2 = keys.sign(b"msg");
        assert_eq!(s1, s2);
        assert_ne!(s1, keys.sign(b"other"));
    }

    #[test]
    fn keygen_is_deterministic_and_seed_sensitive() {
        assert_eq!(kp(b"x").public, kp(b"x").public);
        assert_ne!(kp(b"x").public, kp(b"y").public);
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let keys = kp(b"dave");
        let sig = keys.sign(b"data");
        let back = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(sig, back);
        assert!(keys.public.verify(b"data", &back));
    }

    #[test]
    fn public_key_bytes_roundtrip() {
        let keys = kp(b"erin");
        let back = PublicKey::from_bytes(&keys.public.to_bytes()).unwrap();
        assert_eq!(keys.public, back);
    }

    #[test]
    fn public_key_rejects_invalid_encoding() {
        assert!(PublicKey::from_bytes(&[0u8; 16]).is_none());
        assert!(PublicKey::from_bytes(&[0xffu8; 16]).is_none());
    }

    #[test]
    fn signature_rejects_out_of_range_scalars() {
        let mut b = [0xffu8; 32];
        assert!(Signature::from_bytes(&b).is_none());
        b = [0u8; 32];
        assert!(Signature::from_bytes(&b).is_some());
    }

    #[test]
    fn corrupted_signature_rejected() {
        let keys = kp(b"frank");
        let sig = keys.sign(b"payload");
        let mut bytes = sig.to_bytes();
        bytes[20] ^= 0x01;
        if let Some(bad) = Signature::from_bytes(&bytes) {
            assert!(!keys.public.verify(b"payload", &bad));
        }
    }

    #[test]
    fn cross_key_replay_fails() {
        // The same (e,s) pair must not verify under a different public key,
        // because the public key is bound into the challenge.
        let a = kp(b"payer-a");
        let b = kp(b"payer-b");
        let msg = b"token #42: 500 credits";
        let sig = a.sign(msg);
        assert!(a.public.verify(msg, &sig));
        assert!(!b.public.verify(msg, &sig));
    }

    #[test]
    fn fingerprint_is_stable_and_short() {
        let f = kp(b"grace").public.fingerprint();
        assert_eq!(f.len(), 16);
        assert_eq!(f, kp(b"grace").public.fingerprint());
    }

    #[test]
    fn empty_message_signs() {
        let keys = kp(b"henry");
        let sig = keys.sign(b"");
        assert!(keys.public.verify(b"", &sig));
        assert!(!keys.public.verify(b"x", &sig));
    }

    /// Known-answer vectors: the exact bytes of derived public keys,
    /// signatures and HMACs for fixed (seed, message) pairs. Nonces are
    /// deterministic, so any change to the field, scalar, hash or MAC
    /// arithmetic that alters an output byte fails here.
    #[test]
    fn known_answer_vectors() {
        let long_msg = [0xa5u8; 150];
        let long_seed = [0x3cu8; 100];
        // (seed, message, public key, signature, HMAC(seed, message))
        type Case<'a> = (&'a [u8], &'a [u8], &'a str, &'a str, &'a str);
        let cases: [Case; 4] = [
            (
                b"alice",
                b"",
                "25f118e17e13e48fb84ceeaade6bbaed",
                "5897b053606692c7c52a7faca288bf6c690075e49bf2aea2adc7164fb333876e",
                "3f4de8367d9d93b5754306bb8ec5c01d52c40da5dd0a2facffbf765927d43dcc",
            ),
            (
                b"bank",
                b"tycoon-receipt-v1 transfer 7 from 3 to 9",
                "64ebc483932faa6343c89e827012cef6",
                "660772360c7504e06be7863f2707a052451d2930810a912677231c929da81be2",
                "55c4d3ae02bd75ee77fd9fe3dd280e8b67aac93b6a075bbd953562f3a837e212",
            ),
            (
                b"perfbench-probe",
                &long_msg,
                "73a4fe2ef818f19696e10eccb95a117e",
                "11987fc00c3e0f6058c7ab204a5badd25066f53158194721d9b4161eb7f81010",
                "401ce03d6a3c298aae8a1085bbf1a817b1a5d7b3467207c4ba1a74b1ea00fd36",
            ),
            (
                &long_seed,
                b"transfer 100 credits to the resource broker",
                "2afa3857fbc48683d5c8da2cae55b006",
                "694e84cf06d4376333e1d732d2088c6d297a3e193af9b11d083c007e626a6568",
                "6993a37b37714a87726089890b847aa056cc76d0addb7fd769e9aa06e254328d",
            ),
        ];
        for (seed, msg, public, sig, mac) in cases {
            let keys = kp(seed);
            let got = (
                hex(&keys.public.to_bytes()),
                hex(&keys.sign(msg).to_bytes()),
                hex(&hmac_sha256(seed, msg)),
            );
            assert_eq!(got, (public.to_owned(), sig.to_owned(), mac.to_owned()));
            assert!(keys.public.verify(msg, &keys.sign(msg)));
        }
    }

    #[test]
    fn prepared_key_agrees_with_public_key_on_valid_and_flipped_signatures() {
        let mut rng = SplitMix64::new(4);
        for n in 0..40u64 {
            let keys = kp(&rng.next_u64().to_be_bytes());
            let prepared = PreparedKey::new(keys.public);
            let msg = rng.next_u64().to_be_bytes().repeat(1 + n as usize % 9);
            let sig = keys.sign(&msg);
            assert!(prepared.verify(&msg, &sig) && keys.public.verify(&msg, &sig));
            for _ in 0..8 {
                let mut bytes = sig.to_bytes();
                let bit = rng.next_u64() as usize % 256;
                bytes[bit / 8] ^= 1 << (bit % 8);
                let Some(bad) = Signature::from_bytes(&bytes) else {
                    continue;
                };
                let verdict = keys.public.verify(&msg, &bad);
                assert_eq!(prepared.verify(&msg, &bad), verdict, "seed {n} bit {bit}");
                assert!(!verdict, "a flipped bit must not verify");
            }
        }
    }

    #[test]
    fn debug_does_not_leak_secret() {
        let keys = kp(b"ivy");
        let dbg = format!("{:?}", keys.secret);
        assert!(dbg.contains("redacted"));
    }
}
