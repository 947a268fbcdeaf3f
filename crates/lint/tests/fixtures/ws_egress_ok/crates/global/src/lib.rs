//! The helper crate of the cross-crate seal shape: the [TNP14] protocol
//! core reads a token's contribution and seals tuples, but never touches
//! the bus — the driver crate (`fleet`) mails what these return. The
//! sanitizer (`encrypt_prob`) sits behind `ProtocolTuple::seal`, one
//! crate away from the sink.

pub struct Pds {
    rows: Vec<u8>,
}

impl Pds {
    pub fn group_contribution(&self) -> Vec<u8> {
        self.rows.clone()
    }
}

pub struct ProtocolKey;

impl ProtocolKey {
    pub fn encrypt_prob(&self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = vec![1u8];
        out.extend_from_slice(plaintext);
        out
    }
}

pub struct ProtocolTuple {
    body: Vec<u8>,
}

impl ProtocolTuple {
    pub fn real(groups: &[u8]) -> Self {
        ProtocolTuple {
            body: groups.to_vec(),
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        self.body.clone()
    }

    pub fn seal(&self, key: &ProtocolKey) -> Vec<u8> {
        key.encrypt_prob(&self.encode())
    }
}

/// Helper hop: the source taint crosses the crate boundary as a return.
pub fn contributions_of(pds: &Pds) -> Vec<u8> {
    pds.group_contribution()
}
