//! A test-only module of the `ws_test_only` fixture whose module doc
//! runs long: its `#![cfg(test)]` is the first thing after the doc, at
//! line 31, past the twenty lines a file was once looked at for it.
//! Padding line 4 of the module doc, standing for the prose a real
//! differential's doc carries about its cases, seeds and sizings.
//! Padding line 6 of the module doc, standing for the prose a real
//! differential's doc carries about its cases, seeds and sizings.
//! Padding line 8 of the module doc, standing for the prose a real
//! differential's doc carries about its cases, seeds and sizings.
//! Padding line 10 of the module doc, standing for the prose a real
//! differential's doc carries about its cases, seeds and sizings.
//! Padding line 12 of the module doc, standing for the prose a real
//! differential's doc carries about its cases, seeds and sizings.
//! Padding line 14 of the module doc, standing for the prose a real
//! differential's doc carries about its cases, seeds and sizings.
//! Padding line 16 of the module doc, standing for the prose a real
//! differential's doc carries about its cases, seeds and sizings.
//! Padding line 18 of the module doc, standing for the prose a real
//! differential's doc carries about its cases, seeds and sizings.
//! Padding line 20 of the module doc, standing for the prose a real
//! differential's doc carries about its cases, seeds and sizings.
//! Padding line 22 of the module doc, standing for the prose a real
//! differential's doc carries about its cases, seeds and sizings.
//! Padding line 24 of the module doc, standing for the prose a real
//! differential's doc carries about its cases, seeds and sizings.
//! Padding line 26 of the module doc, standing for the prose a real
//! differential's doc carries about its cases, seeds and sizings.
//! Padding line 28 of the module doc, standing for the prose a real
//! differential's doc carries about its cases, seeds and sizings.

#![cfg(test)]

use super::first_or_zero;

/// A helper of the tests below, not itself a `#[test]`: only the file's
/// `#![cfg(test)]` says it is test code.
fn assert_first(data: &[u8], want: u8) {
    assert_eq!(first_or_zero(data), want);
    let first: Option<u8> = data.first().copied();
    assert!(first.unwrap_or(0) == want);
    if let Some(byte) = data.first() {
        assert_eq!(Some(*byte).unwrap(), want);
    }
}

#[test]
fn the_first_byte_or_zero() {
    assert_first(&[7, 8], 7);
    assert_first(&[], 0);
}
