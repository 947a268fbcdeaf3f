//! Wire format of protocol tuples.
//!
//! Every [TNP14\] protocol moves `(group, value)` contributions between
//! tokens through the SSI. The plaintext payload carries a kind marker
//! (real vs fake — the noise protocols drown frequencies in fakes that
//! only tokens can recognize) and a sequence number (the handle of the
//! spot-checking defense against a weakly malicious SSI).
//!
//! [`ProtocolTuple::seal`] and [`ProtocolTuple::open`] are the only
//! places in the workspace where a tuple crosses the token boundary:
//! every protocol and every driver (the in-process loops here, the bus
//! job in `pds-fleet`) seals and opens through them, so the plaintext
//! form never exists outside a token.

use pds_crypto::{Ciphertext, SymmetricKey};
use pds_obs::rng::Rng;
use pds_obs::wire::Reader;

use crate::error::GlobalError;

/// Real contribution or protocol-generated noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleKind {
    /// A genuine contribution.
    Real,
    /// A fake tuple injected to hide frequencies.
    Fake,
}

/// One protocol tuple in plaintext form (only ever visible inside a
/// token).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolTuple {
    /// Grouping key.
    pub group: String,
    /// Aggregated measure.
    pub value: u64,
    /// Real or fake.
    pub kind: TupleKind,
    /// Collection-time sequence number (unique per run).
    pub seq: u64,
}

impl ProtocolTuple {
    /// A real tuple.
    pub fn real(group: &str, value: u64, seq: u64) -> Self {
        ProtocolTuple {
            group: group.to_string(),
            value,
            kind: TupleKind::Real,
            seq,
        }
    }

    /// A fake tuple for `group`.
    pub fn fake(group: &str, seq: u64) -> Self {
        ProtocolTuple {
            group: group.to_string(),
            value: 0,
            kind: TupleKind::Fake,
            seq,
        }
    }

    /// Serialize: `kind ‖ seq ‖ value ‖ group`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(17 + self.group.len());
        out.push(match self.kind {
            TupleKind::Real => 0,
            TupleKind::Fake => 1,
        });
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.value.to_le_bytes());
        out.extend_from_slice(self.group.as_bytes());
        out
    }

    /// Deserialize; `None` on malformed input (e.g. a forged ciphertext
    /// that somehow authenticated — it cannot, but defense in depth).
    pub fn decode(bytes: &[u8]) -> Option<ProtocolTuple> {
        let mut r = Reader::new(bytes);
        let kind = match r.u8()? {
            0 => TupleKind::Real,
            1 => TupleKind::Fake,
            _ => return None,
        };
        Some(ProtocolTuple {
            kind,
            seq: r.u64()?,
            value: r.u64()?,
            group: std::str::from_utf8(r.rest()).ok()?.to_string(),
        })
    }

    /// Seal for the trip through the SSI: probabilistic authenticated
    /// encryption of the wire form under the shared protocol key. Equal
    /// tuples yield unlinkable ciphertexts.
    pub fn seal(&self, key: &SymmetricKey, rng: &mut impl Rng) -> Vec<u8> {
        key.encrypt_prob(&self.encode(), rng).0
    }

    /// Open one ciphertext inside a token. `Ok(None)` is a ciphertext
    /// that failed authentication (forged or tampered — the caller's
    /// tolerance policy decides whether that aborts the run); an
    /// authentic but malformed payload is a protocol error.
    pub fn open(key: &SymmetricKey, ct: Vec<u8>) -> Result<Option<ProtocolTuple>, GlobalError> {
        let Some(plain) = key.decrypt(&Ciphertext(ct)) else {
            return Ok(None);
        };
        ProtocolTuple::decode(&plain)
            .map(Some)
            .ok_or(GlobalError::Protocol("undecodable tuple"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        for t in [
            ProtocolTuple::real("salary", 250_000, 7),
            ProtocolTuple::fake("rent", 8),
            ProtocolTuple::real("", 0, 0),
        ] {
            assert_eq!(ProtocolTuple::decode(&t.encode()), Some(t));
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(ProtocolTuple::decode(&[]).is_none());
        assert!(ProtocolTuple::decode(&[9; 20]).is_none(), "bad kind tag");
        assert!(ProtocolTuple::decode(&[0; 10]).is_none(), "truncated");
    }
}
