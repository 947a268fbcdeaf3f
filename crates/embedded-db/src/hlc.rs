//! Hybrid logical clock — the commit stamp of the MVCC subsystem.
//!
//! A secure token has no trustworthy wall clock (and the determinism
//! contract forbids reading one), so "hybrid" here keeps only the
//! logical half of the classic HLC: a monotone counter advanced on
//! every local commit (`tick`) and merged with remote stamps on message
//! receipt (`observe`). The two rules preserve exactly the property the
//! subsystem needs — *if commit A causally precedes commit B, then
//! `A.hlc < B.hlc`* — while ties between causally concurrent commits
//! are broken deterministically by node id.

/// A hybrid logical clock stamp: logical counter + node id tie-break.
///
/// Ordering is lexicographic on `(counter, node)` via the derive — the
/// total order every consumer (snapshots, change-log cursors, GC
/// floors) relies on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Hlc {
    /// Logical counter: advances on every local commit and jumps past
    /// any observed remote stamp.
    pub counter: u64,
    /// Id of the token that issued the stamp (causally concurrent
    /// commits on distinct tokens tie-break on it).
    pub node: u32,
}

impl Hlc {
    /// The zero stamp — causally before every commit.
    pub const ZERO: Hlc = Hlc {
        counter: 0,
        node: 0,
    };

    /// Construct a stamp from its raw parts.
    pub fn new(counter: u64, node: u32) -> Self {
        Hlc { counter, node }
    }

    /// Fixed 12-byte wire form (LE counter, LE node).
    pub fn encode(&self) -> [u8; 12] {
        let mut out = [0u8; 12];
        out[0..8].copy_from_slice(&self.counter.to_le_bytes());
        out[8..12].copy_from_slice(&self.node.to_le_bytes());
        out
    }

    /// Parse the wire form; `None` on any size mismatch.
    pub fn decode(bytes: &[u8]) -> Option<Hlc> {
        let mut r = pds_obs::wire::Reader::new(bytes);
        let stamp = Hlc::new(r.u64()?, r.u32()?);
        r.finish()?;
        Some(stamp)
    }
}

impl std::fmt::Display for Hlc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.counter, self.node)
    }
}

/// The clock a token advances: one per database, seeded with the
/// token's node id.
#[derive(Debug, Clone)]
pub struct HlcClock {
    node: u32,
    last: u64,
}

impl HlcClock {
    /// A fresh clock for `node`, starting before all commits.
    pub fn new(node: u32) -> Self {
        HlcClock { node, last: 0 }
    }

    /// The node id this clock stamps with.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The newest stamp issued or observed (no advance).
    pub fn now(&self) -> Hlc {
        Hlc::new(self.last, self.node)
    }

    /// Issue the stamp for a local commit: strictly after every stamp
    /// this clock has issued or observed.
    pub fn tick(&mut self) -> Hlc {
        self.last = self.last.saturating_add(1);
        self.now()
    }

    /// Merge a remote stamp (message receipt): the next `tick` lands
    /// strictly after both histories. Returns the merged `now`.
    pub fn observe(&mut self, remote: Hlc) -> Hlc {
        self.last = self.last.max(remote.counter);
        self.now()
    }

    /// Restore the clock after recovery so the next `tick` lands
    /// strictly after the newest durable stamp.
    pub fn advance_past(&mut self, stamp: Hlc) {
        self.last = self.last.max(stamp.counter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_strictly_monotone() {
        let mut c = HlcClock::new(3);
        let a = c.tick();
        let b = c.tick();
        assert!(a < b);
        assert_eq!(a, Hlc::new(1, 3));
        assert_eq!(b, Hlc::new(2, 3));
        assert!(Hlc::ZERO < a);
    }

    #[test]
    fn observe_jumps_past_remote_history() {
        let mut c = HlcClock::new(1);
        c.tick();
        c.observe(Hlc::new(40, 9));
        let next = c.tick();
        assert_eq!(next, Hlc::new(41, 1));
        // Observing an older stamp never regresses the clock.
        c.observe(Hlc::new(5, 9));
        assert_eq!(c.tick(), Hlc::new(42, 1));
    }

    #[test]
    fn concurrent_commits_tie_break_on_node() {
        let a = Hlc::new(7, 1);
        let b = Hlc::new(7, 2);
        assert!(a < b);
        assert!(Hlc::new(6, 9) < a);
    }

    #[test]
    fn encode_decode_round_trip() {
        let h = Hlc::new(u64::MAX - 1, 0xABCD_EF01);
        assert_eq!(Hlc::decode(&h.encode()), Some(h));
        assert_eq!(Hlc::decode(&[0u8; 11]), None);
        assert_eq!(Hlc::decode(&[0u8; 13]), None);
    }
}
