//! # gm-crypto — hashes, MACs and simulation-grade signatures
//!
//! The paper's security model (§3.1) needs three primitives: a collision-
//! resistant hash (receipt ids, token fingerprints), a MAC (bank-internal
//! integrity), and a public-key signature scheme (Grid identities signing
//! `receipt ‖ DN` bindings, bank-signed transfer receipts).
//!
//! * [`sha256()`] / [`Sha256`] — a from-scratch FIPS 180-4 SHA-256 with the
//!   standard test vectors.
//! * [`hmac_sha256`] — RFC 2104 HMAC over it, checked against RFC 4231.
//!   A secret key absorbs its nonce HMAC key once, as two SHA-256 midstates.
//! * [`sig`] — a Schnorr signature over the multiplicative group of the
//!   Mersenne field `GF(2¹²⁷ − 1)` with deterministic (RFC 6979-flavoured)
//!   nonces.
//!
//! ## Why the bank caches a table for its own key
//!
//! Verifying `(e, s)` computes `g^s·y^e`. `g^s` always comes from the
//! generator's compile-time fixed-base comb, but `y^e` for an
//! arbitrary key needs ~126 squarings. The bank checks only its own
//! signatures — every journaled transfer on recovery, receipts on
//! redemption, the auditor's spot checks — thousands of times per key, so
//! it builds one 8 KiB comb for `y` up front ([`PreparedKey`], ~3 µs) and
//! each of its verifies becomes two comb lookups, about half the cost of
//! [`PublicKey::verify`].
//!
//! ## ⚠ Simulation-grade, not production crypto
//!
//! The paper's deployment used Grid PKI (X.509 / GSI). Reimplementing
//! production-hardened crypto is out of scope for a scheduling-systems
//! reproduction; what matters here is that the *protocol* — sign, verify,
//! reject double-spends, bind capabilities to identities — is executed
//! end-to-end with real (if small) keys. The Schnorr group is ~126 bits
//! and the implementation is not constant-time. Do not reuse outside this
//! simulator. (Documented in `DESIGN.md` §2.)

pub mod field;
pub mod hmac;
pub mod sha256;
pub mod sig;

pub use hmac::hmac_sha256;
pub use sha256::{sha256, Sha256};
pub use sig::{Keypair, PreparedKey, PublicKey, SecretKey, Signature};
