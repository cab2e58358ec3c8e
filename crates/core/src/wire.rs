//! The bounds-checked little-endian reader every wire grammar reads
//! through.
//!
//! The report grammar ([`crate::report::walk_report`]) and the transport's
//! frame codec (`idldp-server`'s `frame.rs`) both read their bytes with a
//! [`WireCursor`]. A read past the end is a typed
//! [`WireError::Truncated`], never a slice out of bounds, so a decoder
//! built on it is total: any byte string parses or yields a typed error.

/// Why bytes do not parse under a wire grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the grammar did.
    Truncated {
        /// Bytes the reader still needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The bytes break the grammar (bad count, bad tag, nonzero padding
    /// bits, trailing bytes, …).
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            WireError::Malformed(detail) => write!(f, "malformed input: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A little-endian reader over a byte slice. Every `read_*` returns
/// [`WireError::Truncated`] instead of reading past the end.
#[derive(Clone, Debug)]
pub struct WireCursor<'a> {
    /// The bytes not read yet.
    rest: &'a [u8],
}

impl<'a> WireCursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf }
    }

    /// Bytes not read yet.
    fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The bytes not read yet, without reading them.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    /// [`WireError::Truncated`] when fewer than `n` remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, tail) = self.rest.split_at_checked(n).ok_or(WireError::Truncated {
            needed: n,
            available: self.rest.len(),
        })?;
        self.rest = tail;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    fn take_array<const N: usize>(&mut self) -> Result<&'a [u8; N], WireError> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated {
                needed: N,
                available: self.rest.len(),
            })?;
        self.rest = tail;
        Ok(head)
    }

    /// One byte.
    ///
    /// # Errors
    /// [`WireError::Truncated`] at the end of the input.
    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        self.take_array::<1>().map(|&[byte]| byte)
    }

    /// A little-endian `u32`.
    ///
    /// # Errors
    /// [`WireError::Truncated`] when fewer than 4 bytes remain.
    pub fn read_u32(&mut self) -> Result<u32, WireError> {
        self.take_array().map(|&bytes| u32::from_le_bytes(bytes))
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    /// [`WireError::Truncated`] when fewer than 8 bytes remain.
    pub fn read_u64(&mut self) -> Result<u64, WireError> {
        self.take_array().map(|&bytes| u64::from_le_bytes(bytes))
    }

    /// A `u64` that must fit the platform's `usize`; `what` names it in
    /// the refusal.
    ///
    /// # Errors
    /// Truncation, or a value over `usize::MAX`.
    pub fn read_len(&mut self, what: &str) -> Result<usize, WireError> {
        fit_usize(self.read_u64()?, what)
    }

    /// A `u32` element count whose elements take at least `min_elem`
    /// bytes each. The count is bounded by the bytes left, so a caller
    /// can reserve room for it without trusting the peer.
    ///
    /// # Errors
    /// Truncation, or a count the remaining bytes cannot hold.
    pub fn read_count(&mut self, what: &str, min_elem: usize) -> Result<usize, WireError> {
        let count = self.read_u32()? as usize;
        let bound = self.remaining() / min_elem.max(1);
        if count > bound {
            return Err(WireError::Malformed(format!(
                "{what} count {count} exceeds what the payload can hold ({bound})"
            )));
        }
        Ok(count)
    }

    /// Requires the input to end here; `what` names it in the refusal.
    ///
    /// # Errors
    /// [`WireError::Malformed`] naming the trailing byte count.
    pub fn finish(self, what: &str) -> Result<(), WireError> {
        if !self.rest.is_empty() {
            return Err(WireError::Malformed(format!(
                "{what}: {} trailing payload bytes",
                self.rest.len()
            )));
        }
        Ok(())
    }
}

/// A wire `u64` as a `usize`, or the typed refusal naming `what`.
pub(crate) fn fit_usize(v: u64, what: &str) -> Result<usize, WireError> {
    usize::try_from(v).map_err(|_| WireError::Malformed(format!("{what} {v} overflows usize")))
}

/// The little-endian value of up to eight bytes: a whole word from eight
/// or more (the first eight), and the zero-extended value of a shorter
/// tail, as the last word of a packed bit row.
#[inline(always)]
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    match bytes.first_chunk::<8>() {
        Some(&word) => u64::from_le_bytes(word),
        None => bytes
            .iter()
            .rev()
            .fold(0, |word, &byte| word << 8 | u64::from(byte)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_little_endian_and_typed_at_the_end() {
        let bytes = [1u8, 2, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 9];
        let mut c = WireCursor::new(&bytes);
        assert_eq!(c.read_u8(), Ok(1));
        assert_eq!(c.read_u32(), Ok(2));
        assert_eq!(c.read_u64(), Ok(7));
        assert_eq!(
            c.read_u32(),
            Err(WireError::Truncated {
                needed: 4,
                available: 1
            })
        );
        assert_eq!(c.rest(), &[9]);
        assert!(c.clone().finish("x").is_err());
        assert_eq!(c.take(1), Ok(&[9u8][..]));
        assert!(c.finish("x").is_ok());
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut c = WireCursor::new(&[3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8]);
        let err = c.read_count("v", 4).unwrap_err();
        assert_eq!(
            err,
            WireError::Malformed("v count 3 exceeds what the payload can hold (2)".into())
        );
    }

    #[test]
    fn le_u64_reads_words_and_short_tails() {
        assert_eq!(le_u64(&[1, 0, 0, 0, 0, 0, 0, 0, 99]), 1);
        assert_eq!(le_u64(&[0x34, 0x12]), 0x1234);
        assert_eq!(le_u64(&[]), 0);
    }
}
