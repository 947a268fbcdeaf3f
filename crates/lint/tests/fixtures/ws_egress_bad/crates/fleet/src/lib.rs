//! Seeded violation: a token reads a raw document row from its store
//! and mails it over the bus without encryption. `pds-lint` must exit
//! nonzero here, naming the full `DocStore::get → read_row →
//! MailboxBus::send` chain.

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

/// Helper hop: the taint must survive one call boundary.
pub fn read_row(store: &DocStore, doc: u32) -> Vec<u8> {
    store.get(doc)
}

/// THE VIOLATION: plaintext document bytes leave the token boundary.
pub fn mail_row(bus: &mut MailboxBus, store: &DocStore, doc: u32) -> u64 {
    let row = read_row(store, doc);
    bus.send(Addr(0), Addr(1), row)
}

/// THE SECOND VIOLATION, across the crate seam: the `global` helper
/// crate reads the contribution, and this driver mails the tuple's wire
/// form without going through `ProtocolTuple::seal`.
pub fn mail_contribution(bus: &mut MailboxBus, pds: &Pds) -> u64 {
    let groups = contributions_of(pds);
    let wire = ProtocolTuple::real(&groups).encode();
    bus.send(Addr(0), Addr(1), wire)
}
