//! # tiara-container
//!
//! The `.tc` binary container format: a magic-tagged, versioned, checksummed
//! bundle of typed 8-byte-aligned sections holding everything a trained
//! TIARA system needs — GCN weight matrices, the slicer configuration, the
//! label vocabulary, and persisted slice-cache shards. Weight payloads are
//! readable zero-copy: [`F32Section`] borrows directly from the mapped bytes
//! (no deserialization pass) and plugs into `tiara-gnn` through its
//! [`F32Source`] trait.
//!
//! ## File layout
//!
//! ```text
//! ┌────────────────────────────┐ 0
//! │ header (64 B)              │ magic "TIARA.TC", version, uuid,
//! │                            │ toc_offset, section_count, file_len,
//! │                            │ header_checksum (covers header + TOC)
//! ├────────────────────────────┤ 64
//! │ section payload #0         │ zero-padded to a multiple of 8
//! │ section payload #1         │
//! │ …                          │
//! ├────────────────────────────┤ toc_offset (8-aligned)
//! │ TOC: section_count × 32 B  │ kind, index, offset, len, checksum
//! └────────────────────────────┘ file_len
//! ```
//!
//! Every byte of the file is covered by a checksum: the header checksum
//! spans `bytes[0..56]` plus the whole TOC, and each TOC entry's checksum
//! spans its payload *including* the zero padding. Sections must be
//! contiguous (each starts where the previous padded payload ends), so a
//! single flipped bit anywhere in the file fails validation.
//!
//! All integers are little-endian. Parsing never panics on malformed input:
//! every structural violation is a [`ContainerError`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod pod;

use std::sync::Arc;

pub use pod::{f32s, AlignedBytes};
pub use tiara_gnn::F32Source;

/// First eight bytes of every `.tc` container.
pub const MAGIC: [u8; 8] = *b"TIARA.TC";
/// Current format version.
pub const FORMAT_VERSION: u32 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 64;
/// Length of one table-of-contents entry in bytes.
pub const TOC_ENTRY_LEN: usize = 32;

/// Section kind tags. The container layer treats kinds as opaque `u32`s;
/// these constants name the kinds the TIARA pipeline writes.
pub mod kind {
    /// Classifier + pipeline configuration (model kind, dims, flags).
    pub const MODEL_CONFIG: u32 = 1;
    /// Slicer configuration (TSLICE decay constants or SSLICE).
    pub const SLICER_CONFIG: u32 = 2;
    /// Label vocabulary: the `ContainerClass` index → name table.
    pub const LABEL_VOCAB: u32 = 3;
    /// One f32 weight matrix: `[rows u32][cols u32][f32 × rows·cols]`.
    pub const WEIGHT_F32: u32 = 4;
    // Tag 5 is retired (int8 quant tables); readers skip it, never reuse it.
    /// One persisted slice-cache shard, `index` = shard id.
    pub const CACHE_SHARD: u32 = 6;

    /// Human-readable name of a kind tag (for `tiara inspect`).
    pub fn name(kind: u32) -> &'static str {
        match kind {
            MODEL_CONFIG => "model-config",
            SLICER_CONFIG => "slicer-config",
            LABEL_VOCAB => "label-vocab",
            WEIGHT_F32 => "weight-f32",
            CACHE_SHARD => "cache-shard",
            _ => "unknown",
        }
    }
}

/// Why a byte buffer is not a valid container.
#[derive(Debug)]
pub enum ContainerError {
    /// The buffer does not start with [`MAGIC`] — not a container at all.
    NotAContainer,
    /// Structurally invalid: truncation, bad checksum, misalignment, …
    Corrupt(String),
    /// A well-formed container from an unsupported format version.
    UnsupportedVersion(u32),
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::NotAContainer => write!(f, "missing TIARA.TC magic"),
            ContainerError::Corrupt(m) => write!(f, "corrupt container: {m}"),
            ContainerError::UnsupportedVersion(v) => {
                write!(f, "unsupported container version {v} (supported: {FORMAT_VERSION})")
            }
        }
    }
}

impl std::error::Error for ContainerError {}

/// Shorthand for container results.
pub type Result<T> = std::result::Result<T, ContainerError>;

fn corrupt<T>(message: impl Into<String>) -> Result<T> {
    Err(ContainerError::Corrupt(message.into()))
}

/// 64-bit FNV-1a over `bytes`, continuing from `state` (seed with
/// [`FNV_OFFSET`]). Used for every checksum in the format: not
/// cryptographic, but any single bit flip changes the digest.
pub fn fnv1a64(state: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a offset basis: the seed for [`fnv1a64`].
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn padded_len(len: u64) -> u64 {
    len.div_ceil(8) * 8
}

/// One table-of-contents record: a typed section of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TocEntry {
    /// Section kind tag (see [`kind`]).
    pub kind: u32,
    /// Disambiguates multiple sections of one kind (layer index, shard id).
    pub index: u32,
    /// Byte offset of the payload from the start of the file (8-aligned).
    pub offset: u64,
    /// Unpadded payload length in bytes.
    pub len: u64,
    /// FNV-1a of the payload plus its zero padding.
    pub checksum: u64,
}

impl TocEntry {
    /// Payload length rounded up to the 8-byte alignment boundary.
    pub fn aligned_len(&self) -> u64 {
        padded_len(self.len)
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Builds a container byte-for-byte deterministically: same sections in the
/// same order → identical file (the UUID is content-derived).
#[derive(Debug, Default)]
pub struct Writer {
    sections: Vec<(u32, u32, Vec<u8>)>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Appends a section. Order is preserved in the file and the TOC.
    pub fn add_section(&mut self, kind: u32, index: u32, payload: Vec<u8>) {
        self.sections.push((kind, index, payload));
    }

    /// Serializes header, payloads, and TOC into one buffer.
    pub fn finish(self) -> Vec<u8> {
        let mut out = vec![0u8; HEADER_LEN];
        let mut toc: Vec<TocEntry> = Vec::with_capacity(self.sections.len());
        for (kind, index, payload) in &self.sections {
            let offset = out.len() as u64;
            out.extend_from_slice(payload);
            out.resize(out.len().div_ceil(8) * 8, 0);
            let checksum = fnv1a64(FNV_OFFSET, &out[offset as usize..]);
            toc.push(TocEntry {
                kind: *kind,
                index: *index,
                offset,
                len: payload.len() as u64,
                checksum,
            });
        }
        let toc_offset = out.len() as u64;
        for e in &toc {
            out.extend_from_slice(&e.kind.to_le_bytes());
            out.extend_from_slice(&e.index.to_le_bytes());
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&e.checksum.to_le_bytes());
        }
        let file_len = out.len() as u64;

        // Content-derived UUID: two FNV passes with distinct seeds over the
        // body (payloads + TOC), so identical content gets an identical id.
        let body = &out[HEADER_LEN..];
        let hi = fnv1a64(FNV_OFFSET, body);
        let lo = fnv1a64(fnv1a64(FNV_OFFSET, b"tiara-container-uuid"), body);
        let mut uuid = [0u8; 16];
        uuid[..8].copy_from_slice(&hi.to_le_bytes());
        uuid[8..].copy_from_slice(&lo.to_le_bytes());

        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&(HEADER_LEN as u32).to_le_bytes());
        out[16..32].copy_from_slice(&uuid);
        out[32..40].copy_from_slice(&toc_offset.to_le_bytes());
        out[40..44].copy_from_slice(&(toc.len() as u32).to_le_bytes());
        out[44..48].copy_from_slice(&0u32.to_le_bytes());
        out[48..56].copy_from_slice(&file_len.to_le_bytes());
        let checksum =
            fnv1a64(fnv1a64(FNV_OFFSET, &out[..56]), &out[toc_offset as usize..file_len as usize]);
        out[56..64].copy_from_slice(&checksum.to_le_bytes());
        out
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("caller checked bounds"))
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("caller checked bounds"))
}

/// A fully validated view over container bytes.
///
/// Construction verifies magic, version, file length, header checksum, TOC
/// geometry (contiguous, 8-aligned, in-bounds sections), and every section
/// checksum — after `Reader::new` succeeds, section accessors cannot fail
/// and zero-copy views are sound.
#[derive(Debug)]
pub struct Reader {
    bytes: Arc<AlignedBytes>,
    uuid: [u8; 16],
    version: u32,
    toc: Vec<TocEntry>,
}

impl Reader {
    /// Returns `true` if `bytes` starts with the container magic.
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
    }

    /// Validates `bytes` as a container.
    pub fn new(bytes: AlignedBytes) -> Result<Reader> {
        let b = bytes.as_bytes();
        if !Reader::sniff(b) {
            return Err(ContainerError::NotAContainer);
        }
        if b.len() < HEADER_LEN {
            return corrupt("file shorter than the fixed header");
        }
        let version = read_u32(b, 8);
        if version != FORMAT_VERSION {
            return Err(ContainerError::UnsupportedVersion(version));
        }
        let header_len = read_u32(b, 12);
        if header_len as usize != HEADER_LEN {
            return corrupt(format!("header_len {header_len} != {HEADER_LEN}"));
        }
        let mut uuid = [0u8; 16];
        uuid.copy_from_slice(&b[16..32]);
        let toc_offset = read_u64(b, 32);
        let section_count = read_u32(b, 40);
        let reserved = read_u32(b, 44);
        if reserved != 0 {
            return corrupt("reserved header field is non-zero");
        }
        let file_len = read_u64(b, 48);
        if file_len != b.len() as u64 {
            return corrupt(format!("file_len {file_len} != actual {}", b.len()));
        }
        if !toc_offset.is_multiple_of(8) || toc_offset < HEADER_LEN as u64 {
            return corrupt(format!("misaligned or out-of-range toc_offset {toc_offset}"));
        }
        let toc_len = (section_count as u64).checked_mul(TOC_ENTRY_LEN as u64);
        match toc_len {
            Some(toc_len) if toc_offset.checked_add(toc_len) == Some(file_len) => {}
            _ => return corrupt("TOC does not end exactly at file_len"),
        }
        let declared = read_u64(b, 56);
        let actual =
            fnv1a64(fnv1a64(FNV_OFFSET, &b[..56]), &b[toc_offset as usize..file_len as usize]);
        if declared != actual {
            return corrupt("header/TOC checksum mismatch");
        }

        // Sections must tile [HEADER_LEN, toc_offset) exactly, in order.
        let mut toc = Vec::with_capacity(section_count as usize);
        let mut cursor = HEADER_LEN as u64;
        for i in 0..section_count as usize {
            let at = toc_offset as usize + i * TOC_ENTRY_LEN;
            let entry = TocEntry {
                kind: read_u32(b, at),
                index: read_u32(b, at + 4),
                offset: read_u64(b, at + 8),
                len: read_u64(b, at + 16),
                checksum: read_u64(b, at + 24),
            };
            if entry.offset != cursor {
                return corrupt(format!(
                    "section {i}: offset {} leaves a gap or overlap (expected {cursor})",
                    entry.offset
                ));
            }
            let Some(end) = entry.offset.checked_add(entry.aligned_len()) else {
                return corrupt(format!("section {i}: length overflows"));
            };
            if end > toc_offset {
                return corrupt(format!("section {i}: payload runs past the TOC"));
            }
            let padded = &b[entry.offset as usize..end as usize];
            if fnv1a64(FNV_OFFSET, padded) != entry.checksum {
                return corrupt(format!("section {i}: payload checksum mismatch"));
            }
            cursor = end;
            toc.push(entry);
        }
        if cursor != toc_offset {
            return corrupt("trailing unclaimed bytes between sections and TOC");
        }

        Ok(Reader { bytes: Arc::new(bytes), uuid, version, toc })
    }

    /// The container's content-derived UUID.
    pub fn uuid(&self) -> [u8; 16] {
        self.uuid
    }

    /// The container's format version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// The validated table of contents, in file order.
    pub fn toc(&self) -> &[TocEntry] {
        &self.toc
    }

    /// The shared mapped bytes (for constructing zero-copy views).
    pub fn shared_bytes(&self) -> &Arc<AlignedBytes> {
        &self.bytes
    }

    /// The payload of the first section with this kind and index.
    pub fn section(&self, kind: u32, index: u32) -> Option<&[u8]> {
        let e = self.toc.iter().find(|e| e.kind == kind && e.index == index)?;
        Some(&self.bytes.as_bytes()[e.offset as usize..(e.offset + e.len) as usize])
    }

    /// Byte range of a section's payload within the file.
    pub fn section_range(&self, kind: u32, index: u32) -> Option<std::ops::Range<usize>> {
        let e = self.toc.iter().find(|e| e.kind == kind && e.index == index)?;
        Some(e.offset as usize..(e.offset + e.len) as usize)
    }

    /// All sections of a kind, in file order.
    pub fn sections_of(&self, kind: u32) -> impl Iterator<Item = &TocEntry> {
        self.toc.iter().filter(move |e| e.kind == kind)
    }
}

// ---------------------------------------------------------------------------
// Zero-copy section views
// ---------------------------------------------------------------------------

/// A zero-copy `&[f32]` view into mapped container bytes; plugs into
/// `tiara-gnn` matrices through [`F32Source`].
pub struct F32Section {
    bytes: Arc<AlignedBytes>,
    start: usize,
    len: usize,
}

impl F32Section {
    /// A view of `len` f32s starting at byte offset `start`. Validates
    /// bounds and 4-byte alignment once; the view itself is then infallible.
    pub fn new(bytes: Arc<AlignedBytes>, start: usize, len: usize) -> Option<F32Section> {
        let end = start.checked_add(len.checked_mul(4)?)?;
        if end > bytes.len() {
            return None;
        }
        f32s(&bytes.as_bytes()[start..end])?;
        Some(F32Section { bytes, start, len })
    }
}

impl std::fmt::Debug for F32Section {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("F32Section").field("start", &self.start).field("len", &self.len).finish()
    }
}

impl F32Source for F32Section {
    fn f32s(&self) -> &[f32] {
        f32s(&self.bytes.as_bytes()[self.start..self.start + self.len * 4])
            .expect("validated at construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = Writer::new();
        w.add_section(kind::MODEL_CONFIG, 0, vec![1, 2, 3]);
        w.add_section(kind::WEIGHT_F32, 0, {
            let mut p = Vec::new();
            p.extend_from_slice(&1u32.to_le_bytes());
            p.extend_from_slice(&2u32.to_le_bytes());
            p.extend_from_slice(&0.5f32.to_le_bytes());
            p.extend_from_slice(&(-1.5f32).to_le_bytes());
            p
        });
        w.finish()
    }

    #[test]
    fn round_trips_sections_and_metadata() {
        let file = sample();
        let r = Reader::new(AlignedBytes::copy_from(&file)).unwrap();
        assert_eq!(r.version(), FORMAT_VERSION);
        assert_eq!(r.file_len(), file.len() as u64);
        assert_eq!(r.toc().len(), 2);
        assert_eq!(r.section(kind::MODEL_CONFIG, 0).unwrap(), &[1, 2, 3]);
        assert_eq!(r.section(kind::WEIGHT_F32, 0).unwrap().len(), 16);
        assert!(r.section(kind::CACHE_SHARD, 0).is_none());
    }

    #[test]
    fn identical_content_gets_identical_bytes_and_uuid() {
        let (a, b) = (sample(), sample());
        assert_eq!(a, b, "writer must be deterministic");
        let ra = Reader::new(AlignedBytes::copy_from(&a)).unwrap();
        assert_ne!(ra.uuid(), [0u8; 16]);
    }

    #[test]
    fn different_content_gets_a_different_uuid() {
        let mut w = Writer::new();
        w.add_section(kind::MODEL_CONFIG, 0, vec![9, 9, 9]);
        let other = w.finish();
        let ra = Reader::new(AlignedBytes::copy_from(&sample())).unwrap();
        let rb = Reader::new(AlignedBytes::copy_from(&other)).unwrap();
        assert_ne!(ra.uuid(), rb.uuid());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let file = sample();
        for byte in 0..file.len() {
            for bit in 0..8 {
                let mut bad = file.clone();
                bad[byte] ^= 1 << bit;
                let r = Reader::new(AlignedBytes::copy_from(&bad));
                assert!(
                    r.is_err(),
                    "flip of bit {bit} in byte {byte} went undetected (of {})",
                    file.len()
                );
            }
        }
    }

    #[test]
    fn truncation_and_extension_are_detected() {
        let file = sample();
        for cut in 0..file.len() {
            assert!(Reader::new(AlignedBytes::copy_from(&file[..cut])).is_err(), "cut at {cut}");
        }
        let mut grown = file.clone();
        grown.extend_from_slice(&[0u8; 8]);
        assert!(Reader::new(AlignedBytes::copy_from(&grown)).is_err(), "appended bytes");
    }

    #[test]
    fn non_container_bytes_are_not_a_container() {
        assert!(matches!(
            Reader::new(AlignedBytes::copy_from(b"{\"slicer\":1}")),
            Err(ContainerError::NotAContainer)
        ));
        assert!(!Reader::sniff(b"{}"));
        assert!(Reader::sniff(&sample()));
    }

    #[test]
    fn unsupported_version_is_reported_as_such() {
        let mut file = sample();
        file[8..12].copy_from_slice(&2u32.to_le_bytes());
        // Re-stamp the header checksum so version is the only complaint.
        let toc_offset = u64::from_le_bytes(file[32..40].try_into().unwrap()) as usize;
        let sum = fnv1a64(fnv1a64(FNV_OFFSET, &file[..56]), &file[toc_offset..]);
        file[56..64].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Reader::new(AlignedBytes::copy_from(&file)),
            Err(ContainerError::UnsupportedVersion(2))
        ));
    }

    #[test]
    fn f32_view_is_zero_copy_over_the_mapped_bytes() {
        let file = sample();
        let r = Reader::new(AlignedBytes::copy_from(&file)).unwrap();
        let range = r.section_range(kind::WEIGHT_F32, 0).unwrap();
        let view = F32Section::new(Arc::clone(r.shared_bytes()), range.start + 8, 2).unwrap();
        assert_eq!(view.f32s(), &[0.5, -1.5]);
        let base = r.shared_bytes().as_bytes().as_ptr() as usize;
        let view_ptr = view.f32s().as_ptr() as usize;
        assert_eq!(view_ptr, base + range.start + 8, "view must alias the mapped buffer");
    }

    #[test]
    fn out_of_bounds_views_are_refused() {
        let r = Reader::new(AlignedBytes::copy_from(&sample())).unwrap();
        let n = r.file_len() as usize;
        assert!(F32Section::new(Arc::clone(r.shared_bytes()), n - 4, 2).is_none());
        assert!(F32Section::new(Arc::clone(r.shared_bytes()), 2, 1).is_none(), "misaligned");
        assert!(F32Section::new(Arc::clone(r.shared_bytes()), usize::MAX, 2).is_none());
    }
}
