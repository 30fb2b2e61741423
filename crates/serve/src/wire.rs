//! Little-endian wire primitives shared by the artifact codec and the
//! TCP protocol: a growable writer, a bounds-checked reader and the
//! FNV-1a checksum guarding frozen payloads.
//!
//! The TCP scoring protocol built on these primitives is versioned;
//! [`crate::server::PROTOCOL_VERSION`] is currently 3. Version 2 added
//! the `u32::MAX` health-probe request sentinel and two response
//! statuses (2 = overloaded, 3 = health report) on top of v1's
//! 0 = score / 1 = error; version 3 changes only the health payload. A
//! v1 client talking to a v3 server only sees the new statuses if the
//! server sheds load, and never sees status 3 unless it sends the
//! probe. See the `server` module docs for the full frame layout.

use crate::error::ServeError;

/// FNV-1a over the whole byte slice — the artifact's integrity check.
/// Not cryptographic; it guards against truncation and bit rot, not
/// adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    const FNV_PRIME: u64 = 0x100000001b3;
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64` (artifacts are machine-independent).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` by bit pattern — round trips exactly, including
    /// negative zero and NaN payloads.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    /// Appends a length-prefixed `usize` slice.
    pub fn usizes(&mut self, vs: &[usize]) {
        self.usize(vs.len());
        for &v in vs {
            self.usize(v);
        }
    }
}

/// Bounds-checked little-endian decoder over a borrowed payload. Every
/// read fails with [`ServeError::Artifact`] instead of panicking, so a
/// truncated or corrupt artifact is always a typed error.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(ServeError::Artifact(format!(
                "truncated: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `usize`, rejecting values beyond this platform's range and
    /// implausible lengths (anything longer than the remaining payload).
    pub fn usize(&mut self) -> Result<usize, ServeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| ServeError::Artifact(format!("length {v} overflows usize")))
    }

    /// Reads a length prefix that counts items of at least `item_bytes`
    /// bytes each, rejecting counts the remaining payload cannot hold —
    /// the guard that keeps corrupt artifacts from provoking huge
    /// allocations.
    pub fn len_prefix(&mut self, item_bytes: usize) -> Result<usize, ServeError> {
        let n = self.usize()?;
        self.ensure_holds(n, item_bytes)?;
        Ok(n)
    }

    /// Fails unless the remaining payload can hold `n` items of at least
    /// `item_bytes` bytes each — the check to make before allocating for
    /// any count derived from the payload.
    pub fn ensure_holds(&self, n: usize, item_bytes: usize) -> Result<(), ServeError> {
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(item_bytes.max(1))
            .is_none_or(|b| b > remaining)
        {
            return Err(ServeError::Artifact(format!(
                "implausible length {n} (only {remaining} bytes remain)"
            )));
        }
        Ok(())
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, ServeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, ServeError> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn usizes(&mut self) -> Result<Vec<usize>, ServeError> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.usize()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.f64s(&[1.5, f64::MIN_POSITIVE]);
        w.usizes(&[3, 0, 9]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64s().unwrap(), vec![1.5, f64::MIN_POSITIVE]);
        assert_eq!(r.usizes().unwrap(), vec![3, 0, 9]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = Writer::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert!(matches!(r.u64(), Err(ServeError::Artifact(_))));
    }

    #[test]
    fn implausible_lengths_are_rejected_before_allocating() {
        let mut w = Writer::new();
        w.usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).f64s(),
            Err(ServeError::Artifact(_))
        ));
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a64(b"quorum"), fnv1a64(b"quoruM"));
    }
}
