//! Cryptographic primitives for the simulation.
//!
//! The paper's system model assumes "cryptographic primitives cannot be
//! broken". This module provides:
//!
//! * [`sha256`] — a from-scratch SHA-256 used for message digests (XPaxos
//!   COMMIT messages carry request hashes, Section V-A).
//! * [`Keychain`] / [`Signer`] / [`Signed`] — a simulated signature scheme.
//!
//! # Signature model
//!
//! Signatures are MAC-like tags: `tag = SHA-256(secret_i ‖ payload)` where
//! `secret_i` is a per-process secret derived from a cluster seed. The
//! unbreakability assumption is enforced *by construction*: a process (or
//! the Byzantine adversary playing a set of faulty processes) can only
//! obtain [`Signer`] handles for the processes it was explicitly given at
//! setup, so it can never produce a tag that verifies for a correct
//! process's identity. Byzantine processes retain the misbehaviours the
//! paper's protocols must handle — equivocation (signing two conflicting
//! payloads) and malformed-but-authenticated messages — because signing any
//! payload of their own choosing is allowed.
//!
//! Every handle of one [`Keychain`] (clones included) shares a bounded memo
//! of signatures known to be valid: `(signer, tag)` mapped to the exact
//! encoded payload bytes. [`Signer::sign`] records what it signs, and
//! [`Verifier::verify`] answers from the memo only on an exact match of
//! signer, tag *and* bytes; anything else is recomputed in full, and
//! recorded only if it verifies. This is sound: an entry exists only for
//! a triple that `sign` produced with that signer's secret or that passed
//! the full check, so for every input `verify` returns exactly what
//! recomputing the tag would. A tampered payload, a borrowed tag or a
//! swapped signer misses the memo and fails as before. The memo saves
//! work, not trust: the tag formula and every tag are unchanged.

mod sha256;
mod sign;

pub use sha256::{sha256, Digest, Sha256};
pub use sign::{Keychain, SigStats, SigTag, Signed, Signer, VerifyError, Verifier};
