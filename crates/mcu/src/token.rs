//! The secure portable token: the execution context of a PDS.
//!
//! "Why trust personal secure HW solutions? Users store their own data …
//! self (user) managed platform … tamper-resistance + certified code +
//! single user ⇒ the ratio cost/benefit of an attack is very high."
//!
//! A [`Token`] bundles the two resources every embedded algorithm needs —
//! a NAND flash chip and a RAM budget — with an identity and a *tamper
//! state*. Tamper resistance itself cannot be reproduced in software; its
//! role in the tutorial's protocols is the **threat-model assumption**
//! (`Unbreakable` vs `Broken`), which Part III's adversary simulations set
//! explicitly per token.
//!
//! Two ways lead to a [`TokenSleep`], the token's persistent state:
//! [`Token::hibernate`] *photographs* it (the chip is copied, the token
//! carries on — probes and crash tests) and [`Token::power_off`] is the
//! *power switch* (the chip's cells move into the sleep, nothing is
//! copied, the token is gone). [`Token::wake`] is the one way back.

use crate::profile::HardwareProfile;
use crate::ram::RamBudget;
use pds_flash::Flash;

/// Globally unique token identifier (one per individual).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TokenId(pub u64);

/// Threat-model state of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperState {
    /// The tutorial's default assumption: tamper-resistant hardware and
    /// certified code hold; secrets never leave the chip.
    Unbreakable,
    /// The token has been physically compromised; its keys and data are
    /// known to the adversary. Part III's "weakly malicious" analyses
    /// require protocols to confine the damage of broken tokens.
    Broken,
}

/// A secure portable token: MCU + NAND + identity.
pub struct Token {
    id: TokenId,
    profile: HardwareProfile,
    flash: Flash,
    ram: RamBudget,
    tamper: TamperState,
}

impl Token {
    /// Manufacture a token of the given class.
    pub fn new(id: TokenId, profile: HardwareProfile) -> Self {
        Token {
            id,
            profile,
            flash: Flash::new(profile.flash),
            ram: RamBudget::new(profile.ram_bytes),
            tamper: TamperState::Unbreakable,
        }
    }

    /// A token with the standard secure-token profile.
    pub fn secure(id: u64) -> Self {
        Token::new(TokenId(id), HardwareProfile::secure_token())
    }

    /// A small token for fast tests.
    pub fn for_tests(id: u64) -> Self {
        Token::new(TokenId(id), HardwareProfile::test_profile())
    }

    /// A minimal-footprint token for population-scale simulations.
    pub fn slim(id: u64) -> Self {
        Token::new(TokenId(id), HardwareProfile::population())
    }

    /// The token identity.
    pub fn id(&self) -> TokenId {
        self.id
    }

    /// The hardware class.
    pub fn profile(&self) -> &HardwareProfile {
        &self.profile
    }

    /// Handle on the token's flash chip.
    pub fn flash(&self) -> &Flash {
        &self.flash
    }

    /// Handle on the token's RAM budget.
    pub fn ram(&self) -> &RamBudget {
        &self.ram
    }

    /// True unless the adversary broke this token.
    pub fn is_trusted(&self) -> bool {
        self.tamper == TamperState::Unbreakable
    }

    /// Adversary action: physically break the token (Part III
    /// experiments).
    pub fn compromise(&mut self) {
        self.tamper = TamperState::Broken;
    }

    /// Simulate a power cycle on a copy: same identity, same silicon, but
    /// the flash controller rebuilds its state by cell scan and the RAM
    /// budget starts empty — everything RAM-resident died with the power.
    /// Tamper state is physical and survives. `self` carries on untouched.
    pub fn reopen(&self) -> Token {
        Token::wake(self.hibernate())
    }

    /// Photograph the token's persistent state: identity, hardware
    /// class, tamper state, and a [`ChipSnapshot`](pds_flash::ChipSnapshot)
    /// holding a copy of the programmed NAND pages. The token carries on
    /// untouched; the power switch is [`Token::power_off`].
    pub fn hibernate(&self) -> TokenSleep {
        self.sleep_with(self.flash.snapshot())
    }

    /// Power the token down to its persistent state — the same
    /// [`TokenSleep`] a [`hibernate`](Self::hibernate) photographs, but
    /// the NAND cells themselves move into it ([`Flash::power_off`]):
    /// nothing is copied, and any flash handle that outlives the token
    /// answers `PowerLoss`. The sleep is plain data (no `Rc` flash
    /// handle), so a scheduler can park thousands of idle tokens in a
    /// fraction of their live footprint. [`Token::wake`] is the inverse.
    pub fn power_off(self) -> TokenSleep {
        self.sleep_with(self.flash.power_off())
    }

    fn sleep_with(&self, chip: pds_flash::ChipSnapshot) -> TokenSleep {
        TokenSleep {
            id: self.id,
            profile: self.profile,
            tamper: self.tamper,
            chip,
        }
    }

    /// Boot a token from persistent silicon — the only boot path: the
    /// flash controller rebuilds its state by cell scan
    /// ([`Flash::reopen`]) and the RAM budget starts empty.
    pub fn wake(sleep: TokenSleep) -> Token {
        Token {
            id: sleep.id,
            profile: sleep.profile,
            flash: Flash::reopen(sleep.chip),
            ram: RamBudget::new(sleep.profile.ram_bytes),
            tamper: sleep.tamper,
        }
    }
}

/// A powered-down token: everything that survives power loss, nothing
/// that doesn't. Unlike a live [`Token`] this is `Send` plain data.
pub struct TokenSleep {
    id: TokenId,
    profile: HardwareProfile,
    tamper: TamperState,
    chip: pds_flash::ChipSnapshot,
}

impl TokenSleep {
    /// The hibernated token's identity.
    pub fn id(&self) -> TokenId {
        self.id
    }

    /// Approximate persistent footprint: bytes the sparse chip snapshot
    /// holds (programmed pages only).
    pub fn resident_bytes(&self) -> usize {
        self.chip.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_exposes_its_resources() {
        let t = Token::for_tests(7);
        assert_eq!(t.id(), TokenId(7));
        assert_eq!(t.ram().capacity(), t.profile().ram_bytes);
        assert_eq!(t.flash().geometry(), t.profile().flash);
        assert!(t.is_trusted());
    }

    #[test]
    fn compromise_flips_trust() {
        let mut t = Token::for_tests(1);
        t.compromise();
        assert!(!t.is_trusted());
    }

    #[test]
    fn tokens_have_independent_budgets() {
        let a = Token::for_tests(1);
        let b = Token::for_tests(2);
        let _r = a.ram().reserve(a.ram().capacity()).unwrap();
        assert!(b.ram().reserve(1024).is_ok());
    }
}
