//! Simulated unforgeable signatures.
//!
//! See the [module documentation](crate::crypto) for the threat model.

use std::cell::RefCell;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use crate::encode::{Decode, DecodeError, Encode, Reader};
use crate::id::{ClusterConfig, ProcessId};

use super::sha256::{Digest, Sha256};

/// A signature tag over an encoded payload.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SigTag(Digest);

impl fmt::Debug for SigTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SigTag({}…)", self.0.short())
    }
}

impl Encode for SigTag {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Decode for SigTag {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SigTag(Digest::decode(r)?))
    }
}

/// A payload together with the identity of its signer and a signature tag.
///
/// Built by [`Signer::sign`], checked by [`Verifier::verify`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Signed<T> {
    /// The signed payload.
    pub payload: T,
    /// The claimed signer.
    pub signer: ProcessId,
    /// The signature tag.
    pub tag: SigTag,
}

impl<T: Encode> Encode for Signed<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.payload.encode(buf);
        self.signer.encode(buf);
        self.tag.encode(buf);
    }
}

impl<T: Decode> Decode for Signed<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Signed {
            payload: T::decode(r)?,
            signer: ProcessId::decode(r)?,
            tag: SigTag::decode(r)?,
        })
    }
}

/// Most signatures the verify memo holds; once full, each new entry
/// overwrites the oldest.
const MEMO_ENTRIES: usize = 1024;

/// Longest encoded payload, in bytes, the verify memo records. Longer
/// payloads are always checked in full.
const MEMO_MAX_PAYLOAD: usize = 1024;

/// Work counters of one keychain's signature operations, summed over every
/// [`Signer`] and [`Verifier`] handed out by it (and by its clones).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SigStats {
    /// Full SHA-256 tag computations: one per [`Signer::sign`], one per
    /// [`Verifier::verify`] of a known signer the memo could not answer.
    pub tags_computed: u64,
    /// [`Verifier::verify`] calls answered from the memo.
    pub memo_hits: u64,
}

/// Central key material for a cluster, derived from a seed.
///
/// Create one keychain per simulated cluster, hand each process (and the
/// adversary, for the faulty processes it plays) its [`Signer`], and share
/// the [`Verifier`] freely.
///
/// Every handle of one keychain (clones included) shares a memo of the
/// signatures already produced or checked, so a tag the cluster has
/// computed once is not recomputed by the next verifier (see the
/// [module documentation](crate::crypto)). Two [`Keychain::new`] calls
/// never share a memo, even for the same seed.
///
/// # Example
///
/// ```
/// use qsel_types::crypto::Keychain;
/// use qsel_types::{ClusterConfig, ProcessId};
///
/// let cfg = ClusterConfig::new(3, 1).unwrap();
/// let chain = Keychain::new(&cfg, 42);
/// let signer = chain.signer(ProcessId(1));
/// let verifier = chain.verifier();
/// let signed = signer.sign(7u32);
/// assert!(verifier.verify(&signed).is_ok());
/// assert_eq!(chain.stats().tags_computed, 1);
/// assert_eq!(chain.stats().memo_hits, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Keychain {
    shared: Rc<Shared>,
}

impl Keychain {
    /// Derives per-process secrets for every process of `cfg` from `seed`.
    pub fn new(cfg: &ClusterConfig, seed: u64) -> Self {
        let secrets = cfg
            .processes()
            .map(|p| {
                let mut h = Sha256::new();
                h.update(b"qsel-keychain");
                h.update(&seed.to_le_bytes());
                h.update(&p.0.to_le_bytes());
                h.finalize()
            })
            .collect();
        Keychain {
            shared: Rc::new(Shared {
                secrets,
                memo: RefCell::new(Memo::default()),
            }),
        }
    }

    /// The signing handle for `id`.
    ///
    /// Handing a [`Signer`] to a component grants it the ability to
    /// authenticate as `id` — give the adversary only the signers of the
    /// faulty processes.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of the cluster the keychain was
    /// created for.
    pub fn signer(&self, id: ProcessId) -> Signer {
        assert!(
            id.index() < self.shared.secrets.len(),
            "{id} is not a process of this keychain's cluster"
        );
        Signer {
            id,
            shared: Rc::clone(&self.shared),
        }
    }

    /// A verifier for all processes' signatures.
    pub fn verifier(&self) -> Verifier {
        Verifier {
            shared: Rc::clone(&self.shared),
        }
    }

    /// Tag computations and memo hits so far, over all handles of this
    /// keychain. Deterministic for a seeded simulation.
    pub fn stats(&self) -> SigStats {
        self.shared.memo.borrow().stats
    }
}

/// Capability to sign payloads as one specific process.
#[derive(Clone, Debug)]
pub struct Signer {
    id: ProcessId,
    shared: Rc<Shared>,
}

impl Signer {
    /// The identity this signer authenticates as.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Signs `payload`.
    pub fn sign<T: Encode>(&self, payload: T) -> Signed<T> {
        let mut memo = self.shared.memo.borrow_mut();
        memo.encode(&payload);
        let tag = memo.compute_tag(&self.shared.secrets[self.id.index()], self.id);
        memo.record((self.id, tag));
        drop(memo);
        Signed {
            payload,
            signer: self.id,
            tag,
        }
    }
}

/// Verifies signatures of any cluster process.
#[derive(Clone, Debug)]
pub struct Verifier {
    shared: Rc<Shared>,
}

impl Verifier {
    /// Checks that `signed.tag` is a valid signature by `signed.signer` over
    /// `signed.payload`.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::UnknownSigner`] for out-of-cluster ids and
    /// [`VerifyError::BadSignature`] for tag mismatches.
    pub fn verify<T: Encode>(&self, signed: &Signed<T>) -> Result<(), VerifyError> {
        let secret = self
            .shared
            .secrets
            .get(signed.signer.index())
            .ok_or(VerifyError::UnknownSigner(signed.signer))?;
        let key = (signed.signer, signed.tag);
        let mut memo = self.shared.memo.borrow_mut();
        memo.encode(&signed.payload);
        if memo.holds(&key) {
            memo.stats.memo_hits += 1;
            return Ok(());
        }
        if memo.compute_tag(secret, signed.signer) == signed.tag {
            memo.record(key);
            Ok(())
        } else {
            Err(VerifyError::BadSignature(signed.signer))
        }
    }
}

/// The state every handle of one keychain points at. The workspace is
/// single-threaded, so `Rc` + `RefCell` suffice.
struct Shared {
    secrets: Vec<Digest>,
    memo: RefCell<Memo>,
}

impl fmt::Debug for Shared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("processes", &self.secrets.len())
            .field("memo", &self.memo)
            .finish()
    }
}

/// Signatures known to be valid: `(signer, tag)` → the exact encoded
/// payload bytes it was produced or checked over, in a fixed ring of
/// reusable buffers.
#[derive(Default)]
struct Memo {
    /// Encoding of the payload being signed or verified.
    encoded: Vec<u8>,
    ring: Vec<Entry>,
    /// Ring slot the next entry overwrites once the ring is full.
    next: usize,
    /// `(signer, tag)` → ring slot. Lookup only: never iterated.
    index: HashMap<(ProcessId, SigTag), usize>,
    stats: SigStats,
}

struct Entry {
    key: (ProcessId, SigTag),
    bytes: Vec<u8>,
}

impl Memo {
    /// Encodes `payload` into the encode buffer.
    fn encode<T: Encode + ?Sized>(&mut self, payload: &T) {
        self.encoded.clear();
        payload.encode(&mut self.encoded);
    }

    /// The signature tag of `id` over the encoded bytes, computed in full.
    fn compute_tag(&mut self, secret: &Digest, id: ProcessId) -> SigTag {
        self.stats.tags_computed += 1;
        let mut h = Sha256::new();
        h.update(b"qsel-sig");
        h.update(secret.as_bytes());
        h.update(&id.0.to_le_bytes());
        h.update(&self.encoded);
        SigTag(h.finalize())
    }

    /// Whether `key` was recorded over exactly the encoded bytes.
    fn holds(&self, key: &(ProcessId, SigTag)) -> bool {
        self.index
            .get(key)
            .is_some_and(|&slot| self.ring[slot].bytes == self.encoded)
    }

    /// Records `key` as a valid signature over the encoded bytes.
    fn record(&mut self, key: (ProcessId, SigTag)) {
        if self.encoded.len() > MEMO_MAX_PAYLOAD || self.index.contains_key(&key) {
            return;
        }
        let slot = if self.ring.len() < MEMO_ENTRIES {
            self.ring.push(Entry {
                key,
                bytes: Vec::new(),
            });
            self.ring.len() - 1
        } else {
            let slot = self.next;
            self.next = (slot + 1) % MEMO_ENTRIES;
            let evicted = std::mem::replace(&mut self.ring[slot].key, key);
            self.index.remove(&evicted);
            slot
        };
        let bytes = &mut self.ring[slot].bytes;
        bytes.clear();
        bytes.extend_from_slice(&self.encoded);
        self.index.insert(key, slot);
    }
}

impl fmt::Debug for Memo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo")
            .field("entries", &self.ring.len())
            .field("tags_computed", &self.stats.tags_computed)
            .field("memo_hits", &self.stats.memo_hits)
            .finish()
    }
}

/// Signature verification failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VerifyError {
    /// The claimed signer is not a cluster process.
    UnknownSigner(ProcessId),
    /// The tag does not verify for the claimed signer and payload.
    BadSignature(ProcessId),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnknownSigner(p) => write!(f, "unknown signer {p}"),
            VerifyError::BadSignature(p) => write!(f, "signature does not verify for {p}"),
        }
    }
}

impl Error for VerifyError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Keychain, Verifier) {
        let cfg = ClusterConfig::new(5, 2).unwrap();
        let chain = Keychain::new(&cfg, 1);
        let v = chain.verifier();
        (chain, v)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (chain, v) = setup();
        let s = chain.signer(ProcessId(3)).sign(vec![1u32, 2, 3]);
        assert_eq!(s.signer, ProcessId(3));
        assert!(v.verify(&s).is_ok());
    }

    #[test]
    fn tampered_payload_fails() {
        let (chain, v) = setup();
        let mut s = chain.signer(ProcessId(3)).sign(vec![1u32, 2, 3]);
        s.payload[0] = 9;
        assert_eq!(v.verify(&s), Err(VerifyError::BadSignature(ProcessId(3))));
    }

    #[test]
    fn claimed_identity_must_match() {
        let (chain, v) = setup();
        let mut s = chain.signer(ProcessId(3)).sign(7u64);
        s.signer = ProcessId(2); // impersonation attempt
        assert_eq!(v.verify(&s), Err(VerifyError::BadSignature(ProcessId(2))));
    }

    #[test]
    fn unknown_signer_rejected() {
        let (chain, v) = setup();
        let mut s = chain.signer(ProcessId(1)).sign(7u64);
        s.signer = ProcessId(42);
        assert_eq!(v.verify(&s), Err(VerifyError::UnknownSigner(ProcessId(42))));
    }

    #[test]
    fn different_seeds_give_different_tags() {
        let cfg = ClusterConfig::new(3, 1).unwrap();
        let a = Keychain::new(&cfg, 1).signer(ProcessId(1)).sign(1u32);
        let b = Keychain::new(&cfg, 2).signer(ProcessId(1)).sign(1u32);
        assert_ne!(a.tag, b.tag);
    }

    #[test]
    fn equivocation_is_possible_but_distinct() {
        // A Byzantine signer may sign two conflicting payloads; both verify,
        // and the two signed messages are distinguishable evidence.
        let (chain, v) = setup();
        let signer = chain.signer(ProcessId(2));
        let a = signer.sign(1u32);
        let b = signer.sign(2u32);
        assert!(v.verify(&a).is_ok());
        assert!(v.verify(&b).is_ok());
        assert_ne!(a.tag, b.tag);
    }

    #[test]
    fn tags_are_pinned() {
        // Guards that the memo leaves the tag formula bit-identical.
        let cfg = ClusterConfig::new(5, 2).unwrap();
        let s = Keychain::new(&cfg, 42).signer(ProcessId(2)).sign(vec![1u32, 2, 3]);
        assert_eq!(
            s.tag.0.to_string(),
            "16938c35b7c1f84a0d0b863496d6022b14481f2cee7c96817ad426374ad5421d"
        );
    }

    #[test]
    fn memo_answers_a_verify_of_a_signed_payload() {
        let (chain, v) = setup();
        let s = chain.signer(ProcessId(3)).sign(vec![1u32, 2, 3]);
        assert!(v.verify(&s).is_ok());
        assert!(chain.verifier().verify(&s).is_ok());
        let stats = chain.stats();
        assert_eq!((stats.tags_computed, stats.memo_hits), (1, 2));
    }

    #[test]
    fn memoised_tag_over_a_tampered_payload_is_rejected() {
        let (chain, v) = setup();
        let mut s = chain.signer(ProcessId(3)).sign(vec![1u32, 2, 3]);
        assert!(v.verify(&s).is_ok());
        s.payload[2] = 4;
        assert_eq!(v.verify(&s), Err(VerifyError::BadSignature(ProcessId(3))));
        // The rejected triple was not recorded: the genuine one still hits,
        // the forged one is recomputed and rejected again.
        assert_eq!(v.verify(&s), Err(VerifyError::BadSignature(ProcessId(3))));
        s.payload[2] = 3;
        let before = chain.stats();
        assert!(v.verify(&s).is_ok());
        assert_eq!(chain.stats().memo_hits, before.memo_hits + 1);
    }

    #[test]
    fn memoised_tag_under_another_signer_is_rejected() {
        let (chain, v) = setup();
        let mut s = chain.signer(ProcessId(3)).sign(7u64);
        assert!(v.verify(&s).is_ok());
        s.signer = ProcessId(2);
        assert_eq!(v.verify(&s), Err(VerifyError::BadSignature(ProcessId(2))));
    }

    #[test]
    fn memoised_tag_under_an_unknown_signer_is_rejected() {
        let (chain, v) = setup();
        let mut s = chain.signer(ProcessId(1)).sign(7u64);
        assert!(v.verify(&s).is_ok());
        s.signer = ProcessId(6);
        assert_eq!(v.verify(&s), Err(VerifyError::UnknownSigner(ProcessId(6))));
    }

    #[test]
    fn evicted_entries_verify_through_the_full_path() {
        let (chain, v) = setup();
        let signer = chain.signer(ProcessId(4));
        let signed: Vec<_> = (0..MEMO_ENTRIES as u64 + 10).map(|i| signer.sign(i)).collect();
        let before = chain.stats();
        // The first ten were overwritten by the last ten.
        for s in &signed[..10] {
            assert!(v.verify(s).is_ok());
        }
        let after = chain.stats();
        assert_eq!(after.memo_hits, before.memo_hits);
        assert_eq!(after.tags_computed, before.tags_computed + 10);
        // The newest entries are still held.
        assert!(v.verify(&signed[signed.len() - 1]).is_ok());
        assert_eq!(chain.stats().memo_hits, after.memo_hits + 1);
    }

    #[test]
    fn oversized_payloads_are_not_recorded() {
        let (chain, v) = setup();
        let s = chain.signer(ProcessId(2)).sign(vec![7u8; MEMO_MAX_PAYLOAD + 1]);
        assert!(v.verify(&s).is_ok());
        assert_eq!(chain.stats(), SigStats { tags_computed: 2, memo_hits: 0 });
    }

    #[test]
    fn keychains_share_a_memo_only_with_their_clones() {
        let cfg = ClusterConfig::new(5, 2).unwrap();
        let a = Keychain::new(&cfg, 1);
        let same_seed = Keychain::new(&cfg, 1);
        let other_seed = Keychain::new(&cfg, 2);
        let clone = a.clone();
        let s = a.signer(ProcessId(1)).sign(9u32);
        assert!(same_seed.verifier().verify(&s).is_ok());
        assert_eq!(same_seed.stats(), SigStats { tags_computed: 1, memo_hits: 0 });
        assert_eq!(
            other_seed.verifier().verify(&s),
            Err(VerifyError::BadSignature(ProcessId(1)))
        );
        assert_eq!(other_seed.stats(), SigStats { tags_computed: 1, memo_hits: 0 });
        assert!(clone.verifier().verify(&s).is_ok());
        assert_eq!(a.stats(), SigStats { tags_computed: 1, memo_hits: 1 });
    }

    mod memo_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// For any payload and any single-byte tampering of payload or
            /// tag, a verifier sharing the signer's memo answers exactly as
            /// a verifier of a fresh keychain, which always recomputes.
            #[test]
            fn shared_verifier_matches_a_fresh_one(
                payload in proptest::collection::vec(any::<u8>(), 0..64usize),
                signer in 1u32..6,
                claimed in 1u32..8,
                target in 0u8..3,
                pos in 0usize..64,
                flip in 1u8..=255,
            ) {
                let cfg = ClusterConfig::new(5, 2).unwrap();
                let chain = Keychain::new(&cfg, 77);
                let shared = chain.verifier();
                let mut s = chain.signer(ProcessId(signer)).sign(payload);
                prop_assert!(shared.verify(&s).is_ok());
                match target {
                    0 if !s.payload.is_empty() => {
                        let i = pos % s.payload.len();
                        s.payload[i] ^= flip;
                    }
                    1 => s.tag.0 .0[pos % 32] ^= flip,
                    _ => s.signer = ProcessId(claimed),
                }
                let fresh = Keychain::new(&cfg, 77).verifier();
                prop_assert_eq!(shared.verify(&s), fresh.verify(&s));
            }
        }
    }
}
