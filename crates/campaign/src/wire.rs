//! Wire primitives of the checkpoint serializer: LEB128 varints, a
//! bounds-checked byte reader, and the running FNV-1a checksum every
//! persisted artifact ends with.
//!
//! Deliberately tiny and dependency-free: the campaign's durability
//! story must not hinge on a serialization framework the offline build
//! cannot carry. Every integer is a varint (checkpoint node lists are
//! dominated by small slot references, so the common node costs a few
//! bytes, not 12), every length is validated before allocation, and
//! every read is bounds-checked — a truncated or bit-flipped file
//! surfaces as a typed [`WireError`], never a panic.

use std::fmt;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Feeds `bytes` into a running FNV-1a 64 state.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A malformed wire artifact: what went wrong and where.
///
/// Every decoding failure is one of these — the deserializer has no
/// panicking paths, because checkpoints are read back after crashes,
/// which is exactly when the file is most likely to be damaged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value being read was complete.
    Truncated {
        /// Byte offset at which more input was needed.
        at: usize,
    },
    /// A varint ran past 10 bytes (no u64 needs more).
    VarintOverflow {
        /// Byte offset of the varint's first byte.
        at: usize,
    },
    /// A decoded value does not fit the field it was read for.
    Range {
        /// What was being read.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A declared length is implausible for the remaining input (guards
    /// pre-allocation against corrupt headers).
    BadLength {
        /// What was being read.
        what: &'static str,
        /// The declared element count.
        declared: u64,
        /// Remaining input bytes.
        remaining: usize,
    },
    /// Trailing garbage after a complete artifact.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8 {
        /// Byte offset of the string's first byte.
        at: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { at } => write!(f, "input truncated at byte {at}"),
            WireError::VarintOverflow { at } => write!(f, "varint overflow at byte {at}"),
            WireError::Range { what, value } => write!(f, "{what}: value {value} out of range"),
            WireError::BadLength {
                what,
                declared,
                remaining,
            } => {
                write!(
                    f,
                    "{what}: declared length {declared} exceeds {remaining} remaining bytes"
                )
            }
            WireError::TrailingBytes { extra } => write!(f, "{extra} trailing byte(s)"),
            WireError::BadUtf8 { at } => write!(f, "invalid UTF-8 at byte {at}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends `v` to `out` as an LEB128 varint (7 bits per byte, high bit
/// = continuation).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A bounds-checked cursor over a byte slice; every accessor returns a
/// typed [`WireError`] instead of panicking.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`WireError::TrailingBytes`] unless the input is
    /// fully consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.remaining(),
            })
        }
    }

    /// Reads one byte.
    pub fn byte(&mut self) -> Result<u8, WireError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(WireError::Truncated { at: self.pos })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads an LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let start = self.pos;
        let mut v: u64 = 0;
        for shift in 0..10 {
            let b = self.byte()?;
            let payload = u64::from(b & 0x7f);
            if shift == 9 && payload > 1 {
                return Err(WireError::VarintOverflow { at: start });
            }
            v |= payload << (7 * shift);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow { at: start })
    }

    /// Reads a varint and narrows it to `u32`.
    pub fn varint_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| WireError::Range { what, value: v })
    }

    /// Reads a varint and narrows it to `usize`.
    pub fn varint_usize(&mut self, what: &'static str) -> Result<usize, WireError> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| WireError::Range { what, value: v })
    }

    /// Reads an element count that must be plausible for the remaining
    /// input: each element occupies at least `min_element_bytes` bytes,
    /// so a corrupt header cannot trigger a huge pre-allocation.
    pub fn length(
        &mut self,
        what: &'static str,
        min_element_bytes: usize,
    ) -> Result<usize, WireError> {
        let v = self.varint()?;
        let fits = usize::try_from(v)
            .ok()
            .and_then(|n| n.checked_mul(min_element_bytes.max(1)));
        match fits {
            Some(total) if total <= self.remaining() => Ok(v as usize),
            _ => Err(WireError::BadLength {
                what,
                declared: v,
                remaining: self.remaining(),
            }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self, what: &'static str) -> Result<String, WireError> {
        let n = self.length(what, 1)?;
        let at = self.pos;
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8 { at })
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v); // lint: allow
            r.expect_end().unwrap(); // lint: allow
        }
    }

    #[test]
    fn truncated_varint_is_typed() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        buf.pop();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.varint(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn varint_overflow_is_typed() {
        let buf = [0xff; 11];
        let mut r = Reader::new(&buf);
        assert!(matches!(r.varint(), Err(WireError::VarintOverflow { .. })));
    }

    #[test]
    fn length_guard_rejects_implausible_counts() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        let mut r = Reader::new(&buf);
        assert!(matches!(
            r.length("nodes", 3),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn string_round_trips_and_rejects_bad_utf8() {
        let mut buf = Vec::new();
        put_string(&mut buf, "héllo/…");
        let mut r = Reader::new(&buf);
        assert_eq!(r.string("s").unwrap(), "héllo/…"); // lint: allow
        let bad = [2u8, 0xff, 0xfe];
        let mut r = Reader::new(&bad);
        assert!(matches!(r.string("s"), Err(WireError::BadUtf8 { .. })));
    }
}
