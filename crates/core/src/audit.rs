//! Tamper-evident audit trail.
//!
//! "Secure usage and accountability: users must not lose control over
//! their data through data sharing." Every access decision — grants and
//! denials alike — is appended to a hash-chained log. The chain head can
//! be published (e.g. alongside the encrypted cloud archive), making any
//! later rewriting or truncation of the trail detectable.

use std::io::Write;

use pds_crypto::HashChain;

/// Outcome of an access request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The policy granted the access.
    Granted,
    /// The policy refused the access.
    Denied,
}

/// One audited event, read where the trail keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditEntry<'a> {
    /// Logical timestamp (the PDS event counter).
    pub seq: u64,
    /// Requesting subject.
    pub subject: &'a str,
    /// Action label (see [`crate::policy::Action::label`]).
    pub action: &'a str,
    /// Target collection description.
    pub target: &'a str,
    /// Outcome.
    pub decision: Decision,
}

impl AuditEntry<'_> {
    /// The bytes the chain is fed, `seq|subject|action|target|decision`,
    /// written over `out`.
    fn write_canonical(&self, out: &mut Vec<u8>) {
        let d = match self.decision {
            Decision::Granted => "granted",
            Decision::Denied => "denied",
        };
        out.clear();
        // Writing into a `Vec` cannot fail.
        let _ = write!(
            out,
            "{}|{}|{}|{}|{}",
            self.seq, self.subject, self.action, self.target, d
        );
    }
}

/// Bits of a name id in a [`Packed`] entry.
const ID_BITS: u32 = 21;
/// The last id: the name every name past the table's capacity shares.
const OVERFLOW: u64 = (1 << ID_BITS) - 1;
/// What the trail says for a name it had no id left for.
const OVERFLOW_NAME: &str = "…";
/// The decision bit of a [`Packed`] entry: set for a denial.
const DENIED: u64 = 1 << 63;

/// One entry in 8 bytes: the ids of its subject, action and target in
/// the trail's name table, 21 bits each, and the decision in the top
/// bit. Its `seq` is its index.
#[derive(Debug, Clone, Copy)]
struct Packed(u64);

impl Packed {
    fn new(subject: u64, action: u64, target: u64, decision: Decision) -> Self {
        let denied = if decision == Decision::Denied {
            DENIED
        } else {
            0
        };
        Packed(subject | action << ID_BITS | target << (2 * ID_BITS) | denied)
    }

    fn id(self, field: u32) -> usize {
        ((self.0 >> (field * ID_BITS)) & OVERFLOW) as usize
    }

    fn decision(self) -> Decision {
        if self.0 & DENIED != 0 {
            Decision::Denied
        } else {
            Decision::Granted
        }
    }

    /// The entry, its names read off `names`.
    fn view(self, names: &[Box<str>], seq: usize) -> AuditEntry<'_> {
        let name = |field| names.get(self.id(field)).map_or(OVERFLOW_NAME, |n| &**n);
        AuditEntry {
            seq: seq as u64,
            subject: name(0),
            action: name(1),
            target: name(2),
            decision: self.decision(),
        }
    }
}

/// The audit log: entries + hash chain.
///
/// A gateway records one entry per request, so the trail is kept
/// packed: 8 bytes an entry over a table holding each subject, action
/// and target name once (up to 2²¹ − 1 names; past that, a new name
/// is recorded — and chained — as `…`). The table is searched in order:
/// a token answers a handful of requesters, a few actions, its own
/// tables. It lives in host RAM, outside the token's budget.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    entries: Vec<Packed>,
    /// Every name the entries use, by id.
    names: Vec<Box<str>>,
    chain: HashChain,
    /// The canonical bytes of the entry being chained, reused.
    line: Vec<u8>,
}

impl AuditLog {
    /// An empty log.
    pub fn new() -> Self {
        AuditLog::default()
    }

    /// The id of `name`, given one if it has none yet.
    fn intern(&mut self, name: &str) -> u64 {
        if let Some(id) = self.names.iter().position(|n| **n == *name) {
            return id as u64;
        }
        let id = self.names.len() as u64;
        if id >= OVERFLOW {
            return OVERFLOW;
        }
        self.names.push(name.into());
        id
    }

    /// Record one decision.
    pub fn record(&mut self, subject: &str, action: &str, target: &str, decision: Decision) {
        let (s, a, t) = (
            self.intern(subject),
            self.intern(action),
            self.intern(target),
        );
        let entry = Packed::new(s, a, t, decision);
        entry
            .view(&self.names, self.entries.len())
            .write_canonical(&mut self.line);
        self.chain.append(&self.line);
        self.entries.push(entry);
    }

    /// All entries, oldest first (the user examining her trail).
    pub fn entries(
        &self,
    ) -> impl ExactSizeIterator<Item = AuditEntry<'_>> + DoubleEndedIterator + '_ {
        let names = &self.names;
        let entries = self.entries.iter().enumerate();
        entries.map(move |(seq, e)| e.view(names, seq))
    }

    /// The chain head — publish this to commit to the trail.
    pub fn head(&self) -> [u8; 32] {
        self.chain.head()
    }

    /// Verify that the stored entries still match the chain — fails if
    /// any entry was altered, reordered or removed.
    pub fn verify(&self) -> bool {
        self.chain.verify_entries(self.entries().map(|e| {
            let mut line = Vec::new();
            e.write_canonical(&mut line);
            line
        }))
    }

    /// Count of denials (a user-facing "who tried what" indicator).
    pub fn denials(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.decision() == Decision::Denied)
            .count()
    }
}

/// Rewrites of the stored trail behind the chain's back — what an
/// attacker holding the host RAM could do — for the tests that check
/// [`AuditLog::verify`] notices.
#[cfg(test)]
impl AuditLog {
    pub(crate) fn tamper_decision(&mut self, i: usize, decision: Decision) {
        let e = &mut self.entries[i];
        *e = Packed::new(e.id(0) as u64, e.id(1) as u64, e.id(2) as u64, decision);
    }

    pub(crate) fn tamper_drop(&mut self, i: usize) {
        self.entries.remove(i);
    }

    pub(crate) fn tamper_swap(&mut self, i: usize, j: usize) {
        self.entries.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_verifies() {
        let mut log = AuditLog::new();
        log.record("alice", "search", "documents", Decision::Granted);
        log.record("insurer", "read", "HEALTH", Decision::Denied);
        assert_eq!(log.entries().len(), 2);
        assert_eq!(log.denials(), 1);
        assert!(log.verify());
    }

    #[test]
    fn tampering_with_an_entry_is_detected() {
        let mut log = AuditLog::new();
        log.record("alice", "read", "BANK", Decision::Granted);
        log.record("mallory", "export", "ALL", Decision::Denied);
        let mut tampered = log.clone();
        tampered.tamper_decision(1, Decision::Granted); // rewrite history
        assert!(!tampered.verify());
        let mut truncated = log.clone();
        truncated.tamper_drop(1); // hide the denial
        assert!(!truncated.verify());
    }

    #[test]
    fn head_changes_with_every_entry() {
        let mut log = AuditLog::new();
        let h0 = log.head();
        log.record("a", "read", "x", Decision::Granted);
        let h1 = log.head();
        log.record("a", "read", "x", Decision::Granted);
        assert_ne!(h0, h1);
        assert_ne!(h1, log.head());
    }
}
