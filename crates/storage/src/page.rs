//! Page addressing and page-count arithmetic.
//!
//! Relations are laid out as classic slotted pages: a header, a slot
//! directory growing from the front, and tuple payloads growing from the
//! back. The page size is fixed at 8 KiB, matching PostgreSQL's default
//! block size so page-count arithmetic in the cost model lines up with the
//! formulas the paper quotes.

use serde::{Deserialize, Serialize};

/// Page size in bytes (PostgreSQL default block size).
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved for the page header.
const PAGE_HEADER_SIZE: usize = 24;

/// Bytes used per slot directory entry (offset + length).
const SLOT_ENTRY_SIZE: usize = 4;

/// Identifier of a page within a file.
pub type PageId = u64;

/// Identifier of a slot within a page.
pub type SlotId = u16;

/// A tuple's physical address: page plus slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TupleId {
    /// The page holding the tuple.
    pub page: PageId,
    /// The slot within the page.
    pub slot: SlotId,
}

impl TupleId {
    /// Construct a tuple id.
    pub fn new(page: PageId, slot: SlotId) -> Self {
        TupleId { page, slot }
    }
}

/// How many pages a relation of `tuple_count` tuples with an average tuple
/// width of `tuple_width` bytes occupies, assuming the standard fill factor.
pub fn pages_for(tuple_count: u64, tuple_width: usize) -> u64 {
    if tuple_count == 0 {
        return 1;
    }
    let usable = (PAGE_SIZE - PAGE_HEADER_SIZE) as f64 * 0.95;
    let per_tuple = (tuple_width + SLOT_ENTRY_SIZE) as f64;
    let tuples_per_page = (usable / per_tuple).floor().max(1.0) as u64;
    tuple_count.div_ceil(tuples_per_page)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_for_matches_capacity_arithmetic() {
        assert_eq!(pages_for(0, 100), 1);
        // 100-byte tuples: ~74 per page
        let pages = pages_for(10_000, 100);
        assert!((130..=140).contains(&pages), "pages {pages}");
        // wider tuples need more pages
        assert!(pages_for(10_000, 400) > pages);
        // monotone in tuple count
        assert!(pages_for(20_000, 100) >= pages);
    }

    #[test]
    fn tuple_id_ordering_is_page_major() {
        let a = TupleId::new(1, 500);
        let b = TupleId::new(2, 0);
        assert!(a < b);
    }
}
