//! Sanitized / waived twin of `ws_egress_bad`: the same read→mail shape
//! passes the gate two legitimate ways — through a `pds-crypto`
//! sanitizer, or under a reasoned waiver at a declared declassification
//! point. `pds-lint` must exit zero here.

pub struct DocStore {
    rows: Vec<Vec<u8>>,
}

impl DocStore {
    pub fn get(&self, doc: u32) -> Vec<u8> {
        self.rows.get(doc as usize).cloned().unwrap_or_default()
    }
}

#[derive(Clone, Copy)]
pub struct Addr(pub u32);

pub struct MailboxBus {
    queue: Vec<Vec<u8>>,
}

impl MailboxBus {
    pub fn send(&mut self, _from: Addr, _to: Addr, payload: Vec<u8>) -> u64 {
        self.queue.push(payload);
        self.queue.len() as u64
    }
}

pub struct SymmetricKey;

impl SymmetricKey {
    pub fn encrypt_det(&self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8];
        out.extend_from_slice(plaintext);
        out
    }
}

pub fn read_row(store: &DocStore, doc: u32) -> Vec<u8> {
    store.get(doc)
}

/// Legitimate egress: the row is sealed before it touches the bus.
pub fn mail_row_sealed(bus: &mut MailboxBus, store: &DocStore, key: &SymmetricKey, doc: u32) -> u64 {
    let row = read_row(store, doc);
    let ct = key.encrypt_det(&row);
    bus.send(Addr(0), Addr(1), ct)
}

/// Declared declassification: the protocol releases this value on
/// purpose, and the waiver records why.
pub fn mail_row_released(bus: &mut MailboxBus, store: &DocStore, doc: u32) -> u64 {
    let row = read_row(store, doc);
    // pds-lint: allow(flow.plaintext_egress) — released aggregate: this fixture models the protocol's declared declassification point
    bus.send(Addr(0), Addr(1), row)
}

/// Cross-crate seal: the contribution is read and sealed by the `global`
/// helper crate (`ProtocolTuple::seal` → `encrypt_prob`); only this
/// driver touches the bus. The sanitizer must survive the crate seam.
pub fn mail_contribution_sealed(bus: &mut MailboxBus, pds: &Pds, key: &ProtocolKey) -> u64 {
    let groups = contributions_of(pds);
    let ct = ProtocolTuple::real(&groups).seal(key);
    bus.send(Addr(0), Addr(1), ct)
}
