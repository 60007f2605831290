//! Minimal binary codec shared by the log format (WAL and snapshots) and
//! the binary specification format: little-endian fixed-width integers,
//! length-prefixed strings, and CRC-32C (Castagnoli) checksums.
//! Hand-rolled because the build environment is offline — no serde, no
//! crc crates.

/// CRC-32C (Castagnoli, poly `0x1EDC6F41` reflected to `0x82F63B78`)
/// lookup tables for slicing-by-8, built at compile time. `CRC_TABLES[0]`
/// is the classic bytewise table; `CRC_TABLES[k]` advances a byte through
/// `k` additional zero bytes, letting the software loop fold eight input
/// bytes per iteration with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32C (Castagnoli) of `bytes` — the checksum guarding every log
/// record and binary spec body against torn writes and bit rot. Castagnoli
/// rather than IEEE because x86-64 executes it in hardware (SSE 4.2's
/// `crc32` instruction, detected at runtime): the WAL sits on the
/// engine's commit path, so checksumming must stay a small fraction of
/// the per-row derivation cost. The software fallback is slicing-by-8
/// over [`CRC_TABLES`]; both paths produce identical values.
pub fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the sse4.2 check above guarantees the `crc32`
        // instructions the function compiles to exist on this CPU.
        return unsafe { crc32c_hw(bytes) };
    }
    crc32c_sw(bytes)
}

/// Hardware CRC-32C: folds eight bytes per `crc32` instruction.
///
/// # Safety
///
/// Must only be called after `is_x86_feature_detected!("sse4.2")`
/// confirmed the instruction set is present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_hw(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = !0u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        crc = _mm_crc32_u64(crc, v);
    }
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// Software CRC-32C: slicing-by-8 over the compile-time tables.
fn crc32c_sw(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` length prefix followed by the UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends an LEB128 varint: seven bits per byte, low bits first. The
/// WAL writes every row with it (`wal::put_group`): file-local ids are
/// dense from 0, so a cell takes one byte below id 128 and two below
/// 16,384, where a fixed-width `u32` would take four.
pub fn put_uv(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Why a decode failed. A short read is the signature of a torn tail
/// (recovery truncates there); the other variants mean corruption that the
/// CRC did not catch or a format violation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value it promised.
    Short,
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A tag or count field held an impossible value.
    BadValue,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CodecError::Short => "truncated record",
            CodecError::BadUtf8 => "invalid UTF-8 in record",
            CodecError::BadValue => "invalid value in record",
        })
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over an immutable byte slice. Every read
/// returns [`CodecError::Short`] instead of panicking when the slice runs
/// out, so torn tails surface as recoverable errors.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor consumed the whole slice.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Short);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads an LEB128 varint (at most ten bytes — a full `u64`).
    pub fn uv(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(CodecError::BadValue);
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::BadValue);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_matches_known_vectors() {
        // Standard CRC-32C (Castagnoli) test vector.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn crc32c_hw_sw_and_bytewise_agree_at_every_length() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            !crc
        }
        // Every alignment and remainder length of the 8-byte fold, through
        // both the dispatching entry point and the software path.
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(37) >> 3) as u8)
            .collect();
        for start in 0..9 {
            for end in start..data.len() {
                let expect = bytewise(&data[start..end]);
                assert_eq!(crc32c(&data[start..end]), expect, "slice [{start}..{end}]");
                assert_eq!(crc32c_sw(&data[start..end]), expect, "sw [{start}..{end}]");
            }
        }
    }

    #[test]
    fn varint_round_trips_and_rejects_overflow() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            put_uv(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for &v in &values {
            assert_eq!(r.uv(), Ok(v));
        }
        assert!(r.is_empty());
        // An 11-byte varint (or a 10th byte above 1) overflows u64.
        let mut bad = vec![0xFF; 10];
        bad.push(0x01);
        assert_eq!(Reader::new(&bad).uv(), Err(CodecError::BadValue));
        let mut short = Reader::new(&[0x80u8][..]);
        assert_eq!(short.uv(), Err(CodecError::Short));
    }

    #[test]
    fn reader_round_trips_and_detects_short() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 3);
        put_str(&mut buf, "héllo");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32(), Ok(7));
        assert_eq!(r.u64(), Ok(u64::MAX - 3));
        assert_eq!(r.str(), Ok("héllo"));
        assert!(r.is_empty());
        assert_eq!(r.u8(), Err(CodecError::Short));

        let mut short = Reader::new(&buf[..5]);
        assert_eq!(short.u32(), Ok(7));
        assert_eq!(short.u64(), Err(CodecError::Short));
    }
}
