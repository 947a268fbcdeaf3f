//! RAM-accounted collections used by the embedded operators.

use crate::ram::{RamBudget, RamError, Reservation};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A growable vector whose heap footprint is charged to the MCU RAM
/// budget. Used by pipeline operators for their per-operator working sets
/// (e.g. one flash-page cursor per query keyword).
pub struct BoundedVec<T> {
    items: Vec<T>,
    reservation: Reservation,
    budget: RamBudget,
}

impl<T> BoundedVec<T> {
    /// An empty vector attached to `budget`.
    pub fn new(budget: &RamBudget) -> Result<Self, RamError> {
        let reservation = budget.reserve(0)?;
        Ok(BoundedVec {
            // pds-lint: allow(ram.raw_alloc) — this IS the accounted container: every push reserves through `budget` before growing.
            items: Vec::new(),
            reservation,
            budget: budget.clone(),
        })
    }

    fn unit() -> usize {
        std::mem::size_of::<T>().max(1)
    }

    /// Push one element, charging its size; fails when RAM is exhausted.
    pub fn push(&mut self, item: T) -> Result<(), RamError> {
        self.reservation.grow(Self::unit())?;
        self.items.push(item);
        Ok(())
    }

    /// Pop the last element, releasing its charge.
    pub fn pop(&mut self) -> Option<T> {
        let it = self.items.pop();
        if it.is_some() {
            self.reservation.shrink(Self::unit());
        }
        it
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Borrow the contents.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Drop all elements, releasing their charge.
    pub fn clear(&mut self) {
        self.reservation.shrink(self.items.len() * Self::unit());
        self.items.clear();
    }

    /// Consume the vector, releasing the charge and returning the items.
    pub fn into_vec(self) -> Vec<T> {
        // Reservation drops with self.
        let BoundedVec { items, .. } = self;
        items
    }

    /// The budget this vector draws from.
    pub fn budget(&self) -> &RamBudget {
        &self.budget
    }
}

impl<T> std::ops::Index<usize> for BoundedVec<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.items[i]
    }
}

/// Bounded top-N selector: keeps the `n` largest items seen so far in a
/// min-heap of fixed RAM footprint.
///
/// This is exactly the structure of the tutorial's embedded search engine:
/// "The N docids with the highest score are kept in RAM" while the
/// inverted-index lists stream by in pipeline.
pub struct TopN<T: Ord> {
    heap: BinaryHeap<Reverse<T>>,
    n: usize,
    _reservation: Reservation,
}

impl<T: Ord> TopN<T> {
    /// A selector for the `n` largest items; its full RAM footprint is
    /// charged up front so that a query's RAM use is known before it runs.
    pub fn new(budget: &RamBudget, n: usize) -> Result<Self, RamError> {
        let bytes = n * std::mem::size_of::<T>().max(1);
        let reservation = budget.reserve(bytes)?;
        Ok(TopN {
            heap: BinaryHeap::with_capacity(n + 1),
            n,
            _reservation: reservation,
        })
    }

    /// Offer one item; it is retained only if it ranks in the current
    /// top `n`.
    pub fn offer(&mut self, item: T) {
        if self.n == 0 {
            return;
        }
        if self.heap.len() < self.n {
            self.heap.push(Reverse(item));
        } else if let Some(Reverse(min)) = self.heap.peek() {
            if item > *min {
                self.heap.pop();
                self.heap.push(Reverse(item));
            }
        }
    }

    /// Number of retained items (≤ n).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Finish, returning the retained items in descending order.
    pub fn into_sorted_desc(self) -> Vec<T> {
        let mut v: Vec<T> = self.heap.into_iter().map(|Reverse(t)| t).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_vec_charges_and_releases() {
        let b = RamBudget::new(8 * 10);
        let mut v: BoundedVec<u64> = BoundedVec::new(&b).unwrap();
        for i in 0..10u64 {
            v.push(i).unwrap();
        }
        assert_eq!(b.used(), 80);
        assert!(v.push(11).is_err(), "11th u64 exceeds 80-byte budget");
        assert_eq!(v.len(), 10);
        assert_eq!(v.pop(), Some(9));
        assert_eq!(b.used(), 72);
        v.clear();
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn bounded_vec_into_vec_releases_budget() {
        let b = RamBudget::new(1024);
        let mut v: BoundedVec<u32> = BoundedVec::new(&b).unwrap();
        v.push(1).unwrap();
        v.push(2).unwrap();
        let plain = v.into_vec();
        assert_eq!(plain, vec![1, 2]);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn top_n_keeps_the_n_largest() {
        let b = RamBudget::new(1024);
        let mut t: TopN<i32> = TopN::new(&b, 3).unwrap();
        for x in [5, 1, 9, 3, 7, 2, 8] {
            t.offer(x);
        }
        assert_eq!(t.into_sorted_desc(), vec![9, 8, 7]);
    }

    #[test]
    fn top_n_with_fewer_items_than_n() {
        let b = RamBudget::new(1024);
        let mut t: TopN<i32> = TopN::new(&b, 10).unwrap();
        t.offer(2);
        t.offer(1);
        assert_eq!(t.into_sorted_desc(), vec![2, 1]);
    }

    #[test]
    fn top_n_charges_up_front() {
        let b = RamBudget::new(16);
        assert!(TopN::<u64>::new(&b, 3).is_err(), "3×8 B > 16 B");
        let t = TopN::<u64>::new(&b, 2).unwrap();
        assert_eq!(b.used(), 16);
        drop(t);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn top_n_zero_is_inert() {
        let b = RamBudget::new(1024);
        let mut t: TopN<i32> = TopN::new(&b, 0).unwrap();
        t.offer(42);
        assert!(t.is_empty());
        assert!(t.into_sorted_desc().is_empty());
    }

    #[test]
    fn top_n_handles_duplicates() {
        let b = RamBudget::new(1024);
        let mut t: TopN<i32> = TopN::new(&b, 3).unwrap();
        for x in [4, 4, 4, 4, 1] {
            t.offer(x);
        }
        assert_eq!(t.into_sorted_desc(), vec![4, 4, 4]);
    }
}
