//! Cost accounting shared by the protocol implementations.

/// Work and traffic of one protocol run — the columns of the E6 table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Tuples decrypted/processed inside tokens (the scarce resource:
    /// tokens are "low powered, highly disconnected").
    pub token_tuples: u64,
    /// Symmetric crypto operations performed by tokens.
    pub token_crypto_ops: u64,
    /// Ciphertext bytes that transited through the SSI.
    pub ssi_bytes: u64,
    /// Sequential token rounds (the latency driver: each round needs a
    /// connected token).
    pub rounds: u32,
    /// Fake tuples generated (noise protocols).
    pub fake_tuples: u64,
}

impl ProtocolStats {
    /// Mirror one finished run into the process-wide `global.*` metrics,
    /// so protocol traffic shows up in the same registry export as flash
    /// I/O and RAM accounting.
    pub fn publish(&self) {
        pds_obs::counter("global.protocol_runs").inc();
        pds_obs::counter("global.token_tuples").add(self.token_tuples);
        pds_obs::counter("global.token_crypto_ops").add(self.token_crypto_ops);
        pds_obs::counter("global.ssi_bytes").add(self.ssi_bytes);
        pds_obs::counter("global.rounds").add(u64::from(self.rounds));
        pds_obs::counter("global.fake_tuples").add(self.fake_tuples);
        pds_obs::histogram("global.ssi_bytes_per_round").observe(if self.rounds == 0 {
            self.ssi_bytes
        } else {
            self.ssi_bytes / u64::from(self.rounds)
        });
    }

    /// Attach this run's traffic to a tracing span as `global.*` attrs.
    pub fn attach_to_span(&self, span: &pds_obs::SpanGuard) {
        span.set("global.rounds", u64::from(self.rounds));
        span.set("global.ssi_bytes", self.ssi_bytes);
        span.set("global.token_tuples", self.token_tuples);
        span.set("global.token_crypto_ops", self.token_crypto_ops);
        span.set("global.fake_tuples", self.fake_tuples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let s = ProtocolStats::default();
        assert_eq!(s.token_tuples + s.token_crypto_ops + s.ssi_bytes, 0);
        assert_eq!(s.rounds, 0);
    }
}
