//! A panic-free crate whose one test-only module opens with a module doc
//! longer than twenty lines: `#![cfg(test)]` comes at line 31 of it, and
//! the module is still test code, its asserts and unwraps unflagged.

mod differential;

pub fn first_or_zero(data: &[u8]) -> u8 {
    data.first().copied().unwrap_or(0)
}
