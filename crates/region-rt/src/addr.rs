//! Word-granularity simulated addresses.
//!
//! The RC runtime (paper §3.3.1) allocates memory to regions in blocks that
//! are a multiple of the page size (8 KB) and aligned on a page boundary,
//! and keeps a map from pages to regions so that `regionof` is a shift, a
//! mask and a table lookup. We reproduce that addressing scheme over a
//! simulated heap: an [`Addr`] names one 8-byte word as `(page, word)` where
//! `word < 1024`.
//!
//! Address 0 is the null pointer; page 0 is reserved so that no live object
//! ever has address 0.

/// Number of 8-byte words in one heap page (8 KB / 8 = 1024).
pub const WORDS_PER_PAGE: usize = 1024;

/// log2 of [`WORDS_PER_PAGE`], used to split an address into page and word.
pub const PAGE_SHIFT: u32 = 10;

/// A simulated heap address: an index of a single 8-byte word.
///
/// `Addr::NULL` (the zero address) is the null pointer. All other addresses
/// decompose into a page index and a word offset within that page; the page
/// index keys the page→owner map that makes `regionof` O(1), exactly as in
/// the paper's implementation.
///
/// # Examples
///
/// ```
/// use region_rt::addr::Addr;
/// let a = Addr::from_parts(3, 17);
/// assert_eq!(a.page(), 3);
/// assert_eq!(a.word(), 17);
/// assert!(!a.is_null());
/// assert!(Addr::NULL.is_null());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The null pointer.
    pub const NULL: Addr = Addr(0);

    /// Builds an address from a page index and a word offset.
    ///
    /// # Panics
    ///
    /// Panics if `word >= WORDS_PER_PAGE`.
    #[inline]
    pub fn from_parts(page: u32, word: u32) -> Addr {
        assert!((word as usize) < WORDS_PER_PAGE, "word offset out of page");
        Addr(((page as u64) << PAGE_SHIFT) | word as u64)
    }

    /// The page index this address falls in.
    #[inline]
    pub fn page(self) -> u32 {
        (self.0 >> PAGE_SHIFT) as u32
    }

    /// The word offset within the page.
    #[inline]
    pub fn word(self) -> u32 {
        (self.0 & ((WORDS_PER_PAGE as u64) - 1)) as u32
    }

    /// Whether this is the null pointer.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The address `self + words`, which may cross into a following page
    /// (large objects span contiguous pages).
    #[inline]
    pub fn offset(self, words: usize) -> Addr {
        Addr(self.0 + words as u64)
    }

    /// Raw word-index representation (what gets stored in heap slots).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs an address from its raw representation.
    #[inline]
    pub fn from_raw(raw: u64) -> Addr {
        Addr(raw)
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_null() {
            write!(f, "null")
        } else {
            write!(f, "{}:{}", self.page(), self.word())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_page_zero() {
        assert_eq!(Addr::NULL.page(), 0);
        assert_eq!(Addr::NULL.word(), 0);
        assert!(Addr::NULL.is_null());
    }

    #[test]
    fn round_trip_parts() {
        for (p, w) in [(0u32, 1u32), (1, 0), (7, 1023), (1 << 20, 512)] {
            let a = Addr::from_parts(p, w);
            assert_eq!(a.page(), p);
            assert_eq!(a.word(), w);
        }
    }

    #[test]
    fn offset_crosses_pages() {
        let a = Addr::from_parts(2, 1020);
        let b = a.offset(10);
        assert_eq!(b.page(), 3);
        assert_eq!(b.word(), 6);
    }

    #[test]
    #[should_panic(expected = "word offset out of page")]
    fn from_parts_rejects_large_word() {
        let _ = Addr::from_parts(0, WORDS_PER_PAGE as u32);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr::NULL.to_string(), "null");
        assert_eq!(Addr::from_parts(4, 2).to_string(), "4:2");
    }
}
