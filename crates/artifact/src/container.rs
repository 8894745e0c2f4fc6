//! The versioned artifact container: magic, version, kind, payload
//! encoding and checksum framing around a [`crate::binary`] or
//! [`crate::json`] payload.
//!
//! Layout (all integers little-endian; full spec in `docs/formats.md`):
//!
//! ```text
//! offset  size  field
//! 0       4     magic, b"RZBA"
//! 4       2     container version (currently 1)
//! 6       1     payload encoding (1 = binary, 2 = JSON)
//! 7       1     reserved, must be 0
//! 8       2     kind length K
//! 10      K     kind, UTF-8 (e.g. "scenario-result")
//! 10+K    8     payload length P
//! 18+K    P     payload bytes
//! 18+K+P  4     CRC-32 (IEEE) over bytes [0, 18+K+P)
//! ```

use crate::binary;
use crate::error::ArtifactError;
use crate::json;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::path::Path;

/// The four magic bytes every razorbus artifact file starts with.
pub const MAGIC: [u8; 4] = *b"RZBA";

/// Newest container version this build reads and the one it writes.
pub const CONTAINER_VERSION: u16 = 1;

/// How the payload inside the container is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Compact positional binary ([`crate::binary`]) — the default.
    Binary,
    /// Human-readable JSON ([`crate::json`]).
    Json,
}

impl Encoding {
    pub(crate) fn byte(self) -> u8 {
        match self {
            Self::Binary => 1,
            Self::Json => 2,
        }
    }

    pub(crate) fn from_byte(byte: u8) -> Result<Self, ArtifactError> {
        match byte {
            1 => Ok(Self::Binary),
            2 => Ok(Self::Json),
            found => Err(ArtifactError::UnknownEncoding { found }),
        }
    }
}

/// Frames `value` into a container byte buffer.
///
/// ```
/// use razorbus_artifact::{decode, encode, Encoding};
///
/// let bytes = encode("word-list", Encoding::Binary, &vec![1u32, 2, 3]).unwrap();
/// assert_eq!(&bytes[..4], b"RZBA");
/// let back: Vec<u32> = decode("word-list", &bytes).unwrap();
/// assert_eq!(back, [1, 2, 3]);
/// ```
///
/// # Errors
///
/// Propagates serialization failures; rejects kinds longer than `u16`.
/// Since the streaming layer landed this is a thin wrapper over
/// [`crate::write_to`] with a `Vec` as the writer — same bytes, one
/// buffer instead of two.
pub fn encode<T: Serialize>(
    kind: &str,
    encoding: Encoding,
    value: &T,
) -> Result<Vec<u8>, ArtifactError> {
    let mut out = Vec::new();
    crate::stream::write_to(&mut out, kind, encoding, value)?;
    Ok(out)
}

/// Unframes and deserializes a container produced by [`encode`],
/// auto-detecting the payload encoding from the header.
///
/// # Errors
///
/// Returns the specific [`ArtifactError`] variant for each corruption
/// class: bad magic, unsupported version, unknown encoding, kind
/// mismatch, truncation, checksum mismatch or malformed payload.
pub fn decode<T: DeserializeOwned>(kind: &str, bytes: &[u8]) -> Result<T, ArtifactError> {
    let (encoding, payload) = open(kind, bytes)?;
    match encoding {
        Encoding::Binary => binary::from_bytes(payload),
        Encoding::Json => {
            let text = core::str::from_utf8(payload)
                .map_err(|_| ArtifactError::Malformed("JSON payload is not UTF-8".into()))?;
            json::from_str(text)
        }
    }
}

/// Validates the framing and returns the encoding plus the raw payload.
fn open<'a>(kind: &str, bytes: &'a [u8]) -> Result<(Encoding, &'a [u8]), ArtifactError> {
    if bytes.len() < 4 || bytes[..4] != MAGIC {
        let mut found = [0u8; 4];
        for (dst, src) in found.iter_mut().zip(bytes) {
            *dst = *src;
        }
        return Err(ArtifactError::BadMagic { found });
    }
    if bytes.len() < 10 {
        return Err(ArtifactError::Truncated);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version > CONTAINER_VERSION {
        return Err(ArtifactError::UnsupportedVersion { found: version });
    }
    let encoding = Encoding::from_byte(bytes[6])?;
    let kind_len = usize::from(u16::from_le_bytes([bytes[8], bytes[9]]));
    let payload_len_at = 10 + kind_len;
    if bytes.len() < payload_len_at + 8 {
        return Err(ArtifactError::Truncated);
    }
    let found_kind = core::str::from_utf8(&bytes[10..payload_len_at])
        .map_err(|_| ArtifactError::Malformed("artifact kind is not UTF-8".into()))?;
    let payload_len = u64::from_le_bytes(
        bytes[payload_len_at..payload_len_at + 8]
            .try_into()
            .expect("sized slice"),
    );
    let payload_at = payload_len_at + 8;
    let payload_len = usize::try_from(payload_len).map_err(|_| ArtifactError::Truncated)?;
    let crc_at = payload_at
        .checked_add(payload_len)
        .filter(|&at| at + 4 <= bytes.len())
        .ok_or(ArtifactError::Truncated)?;
    if crc_at + 4 != bytes.len() {
        return Err(ArtifactError::Malformed(
            "trailing bytes after the checksum".into(),
        ));
    }
    let stored = u32::from_le_bytes(bytes[crc_at..crc_at + 4].try_into().expect("sized slice"));
    if crc32(&bytes[..crc_at]) != stored {
        return Err(ArtifactError::ChecksumMismatch);
    }
    // Kind is checked only after the frame is proven intact, so a corrupt
    // kind string reports as corruption, not as a mismatch.
    if found_kind != kind {
        return Err(ArtifactError::KindMismatch {
            expected: kind.to_string(),
            found: found_kind.to_string(),
        });
    }
    Ok((encoding, &bytes[payload_at..crc_at]))
}

/// Writes `value` to `path` as a framed artifact, streamed through a
/// buffered writer (the value is never materialized as one big byte
/// buffer; see [`crate::write_to`]).
///
/// # Errors
///
/// Propagates encoding and filesystem errors.
pub fn save<T: Serialize, P: AsRef<Path>>(
    path: P,
    kind: &str,
    encoding: Encoding,
    value: &T,
) -> Result<(), ArtifactError> {
    let file = std::fs::File::create(path)?;
    let mut writer = std::io::BufWriter::new(file);
    crate::stream::write_to(&mut writer, kind, encoding, value)?;
    use std::io::Write;
    writer.flush()?;
    Ok(())
}

/// Reads a framed artifact of the given kind back from `path`, streamed
/// through a buffered reader (see [`crate::read_from`]).
///
/// # Errors
///
/// Propagates filesystem errors and every corruption class.
pub fn load<T: DeserializeOwned, P: AsRef<Path>>(path: P, kind: &str) -> Result<T, ArtifactError> {
    let file = std::fs::File::open(path)?;
    let mut reader = std::io::BufReader::new(file);
    crate::stream::read_from(&mut reader, kind)
}

/// One CRC-32 accumulation step over `bytes`; seed with `0xFFFF_FFFF`
/// and complement the final state ([`crc32`] does both for one-shot
/// use; the streaming layer feeds chunks through this).
pub(crate) fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    for &byte in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the same
/// checksum gzip and PNG use.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}
