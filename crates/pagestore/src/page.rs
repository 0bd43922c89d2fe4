//! Pages and page identifiers.

use std::fmt;
use std::num::NonZeroU32;

/// Byte offset of the **per-page LSN** field inside pages written through
/// the tracked-range API ([`crate::PageWrite::write_at`] /
/// [`crate::PageWrite::tracked_mut`]).
///
/// Callers that opt into tracked (delta-loggable) writes promise that
/// bytes `PAGE_LSN_OFFSET .. PAGE_LSN_OFFSET + PAGE_LSN_LEN` of their page
/// layout are reserved for the store: after a tracked commit the store
/// stamps the committed WAL record's LSN there, and recovery applies a
/// delta record to a page iff `record.lsn > page_lsn(page)` — which is
/// what makes delta replay idempotent against write-back races. Heap pages
/// ([`crate::heap`]) reserve the field in their header, right after the
/// magic/generation words.
pub const PAGE_LSN_OFFSET: usize = 12;

/// Width of the per-page LSN field ([`PAGE_LSN_OFFSET`]).
pub const PAGE_LSN_LEN: usize = 8;

/// Byte offset of the **per-page CRC32** field, right after the LSN.
///
/// The checksum is *store-owned*: page layouts never compute or read it.
/// On a persistent backend (see [`crate::PageBackend::persistent`]) it is
/// stamped over the whole image (with this field zeroed) at every backend
/// write site and verified on every backend read, so a torn
/// page-file write or a flipped bit on a cold page surfaces as a typed
/// [`crate::StoreError::ChecksumMismatch`] instead of silently decoding
/// garbage.
pub const PAGE_CRC_OFFSET: usize = PAGE_LSN_OFFSET + PAGE_LSN_LEN;

/// Width of the per-page CRC32 field ([`PAGE_CRC_OFFSET`]).
pub const PAGE_CRC_LEN: usize = 4;

/// End of the store-reserved page region. Every page layout (tree node,
/// prime block, heap page) keeps bytes
/// `PAGE_LSN_OFFSET..PAGE_RESERVED_END` zero in its encoder and never
/// interprets them; the store stamps the LSN and CRC there.
pub const PAGE_RESERVED_END: usize = PAGE_CRC_OFFSET + PAGE_CRC_LEN;

/// A stored checksum of `0` means "never stamped" — the natural state of a
/// freshly grown (all-zero) backend page that was never written back.
/// Verification accepts it; a computed CRC that happens to be 0 is remapped
/// to this sentinel so a stamped page never reads as unstamped.
const CRC_UNSTAMPED: u32 = 0;
const CRC_ZERO_SENTINEL: u32 = 0xFFFF_FFFF;

fn page_crc(bytes: &[u8]) -> u32 {
    let mut crc = crate::crc::Crc32::new();
    crc.update(&bytes[..PAGE_CRC_OFFSET]);
    crc.update(&[0u8; PAGE_CRC_LEN]);
    crc.update(&bytes[PAGE_RESERVED_END..]);
    match crc.finish() {
        CRC_UNSTAMPED => CRC_ZERO_SENTINEL,
        c => c,
    }
}

/// Stamps the per-page CRC32 into the reserved field (see
/// [`PAGE_CRC_OFFSET`]). Called at backend write sites, on a scratch copy
/// of the frame bytes — frames themselves never carry a live checksum.
pub fn stamp_page_crc(bytes: &mut [u8]) {
    let crc = page_crc(bytes);
    bytes[PAGE_CRC_OFFSET..PAGE_RESERVED_END].copy_from_slice(&crc.to_le_bytes());
}

/// Verifies a page image read back from a backend: true when the stored
/// checksum matches the contents, or when the page was never stamped
/// (stored CRC of 0 — e.g. a grown-but-never-written page of zeroes).
pub fn verify_page_crc(bytes: &[u8]) -> bool {
    let stored = u32::from_le_bytes(
        bytes[PAGE_CRC_OFFSET..PAGE_RESERVED_END]
            .try_into()
            .expect("page shorter than its CRC field"),
    );
    stored == CRC_UNSTAMPED || stored == page_crc(bytes)
}

/// Reads the per-page LSN of a page image (see [`PAGE_LSN_OFFSET`]).
pub fn page_lsn(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(
        bytes[PAGE_LSN_OFFSET..PAGE_LSN_OFFSET + PAGE_LSN_LEN]
            .try_into()
            .expect("page shorter than its LSN field"),
    )
}

/// Stamps the per-page LSN of a page image (see [`PAGE_LSN_OFFSET`]).
pub fn set_page_lsn(bytes: &mut [u8], lsn: u64) {
    bytes[PAGE_LSN_OFFSET..PAGE_LSN_OFFSET + PAGE_LSN_LEN].copy_from_slice(&lsn.to_le_bytes());
}

/// Identifier of a page (a tree node or heap block). The paper's `nil`
/// pointer is represented as `Option<PageId>::None`; on disk it is encoded as
/// the raw value `0`, which is never a valid id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(NonZeroU32);

impl PageId {
    /// Builds a `PageId` from its on-disk representation. Returns `None` for
    /// the raw value `0`, which encodes the paper's `nil` pointer.
    pub fn from_raw(raw: u32) -> Option<PageId> {
        NonZeroU32::new(raw).map(PageId)
    }

    /// The on-disk representation (never zero).
    pub fn to_raw(self) -> u32 {
        self.0.get()
    }

    /// Encodes an optional id the way node/page codecs store pointers:
    /// `None` (nil) becomes `0`.
    pub fn encode_opt(p: Option<PageId>) -> u32 {
        p.map_or(0, PageId::to_raw)
    }

    /// Index of this page within the store's slot table.
    pub(crate) fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }

    pub(crate) fn from_index(i: usize) -> PageId {
        PageId(NonZeroU32::new(u32::try_from(i + 1).expect("page id overflow")).unwrap())
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// An owned copy of a page's contents, as returned by `PageStore::get`.
///
/// The model of §2.2 is that `get(x)` *returns the contents* of the node —
/// i.e. reads copy the block into a private buffer (as a disk read into a
/// buffer would), after which the reader works on its private copy while
/// other processes may rewrite the node. `Page` is that private buffer.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    data: Box<[u8]>,
}

impl Page {
    /// A zero-filled page of `size` bytes.
    pub fn zeroed(size: usize) -> Page {
        Page {
            data: vec![0u8; size].into_boxed_slice(),
        }
    }

    /// Wraps an existing buffer, validating it against the store's page
    /// size. Callers that used to pass arbitrary-length buffers (and hit a
    /// runtime `assert!` deep inside `put`) now get a typed error here.
    pub fn from_bytes(
        data: Box<[u8]>,
        page_size: usize,
    ) -> std::result::Result<Page, crate::error::StoreError> {
        if data.len() != page_size {
            return Err(crate::error::StoreError::PageSizeMismatch {
                got: data.len(),
                want: page_size,
            });
        }
        Ok(Page { data })
    }

    /// An owned copy of `bytes` (e.g. of a borrowed page guard).
    pub fn copy_of(bytes: &[u8]) -> Page {
        Page {
            data: bytes.to_vec().into_boxed_slice(),
        }
    }

    /// Page length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the page has zero length (never the case for store pages).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read access to the raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Write access to the raw bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl std::ops::Deref for Page {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for Page {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Page[{} bytes]", self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_round_trips() {
        let p = PageId::from_raw(42).unwrap();
        assert_eq!(p.to_raw(), 42);
        assert_eq!(p.index(), 41);
        assert_eq!(PageId::from_index(41), p);
        assert_eq!(p.to_string(), "P42");
    }

    #[test]
    fn nil_is_zero() {
        assert_eq!(PageId::from_raw(0), None);
        assert_eq!(PageId::encode_opt(None), 0);
        assert_eq!(PageId::encode_opt(PageId::from_raw(9)), 9);
    }

    #[test]
    fn from_bytes_validates_length() {
        let ok = Page::from_bytes(vec![1u8; 32].into_boxed_slice(), 32).unwrap();
        assert_eq!(ok.len(), 32);
        match Page::from_bytes(vec![1u8; 31].into_boxed_slice(), 32) {
            Err(crate::error::StoreError::PageSizeMismatch { got: 31, want: 32 }) => {}
            other => panic!("expected PageSizeMismatch, got {other:?}"),
        }
        let copy = Page::copy_of(ok.bytes());
        assert_eq!(copy, ok);
    }

    #[test]
    fn page_is_zeroed_and_mutable() {
        let mut p = Page::zeroed(64);
        assert_eq!(p.len(), 64);
        assert!(p.bytes().iter().all(|&b| b == 0));
        p.bytes_mut()[3] = 0xAB;
        assert_eq!(p.bytes()[3], 0xAB);
        assert!(!p.is_empty());
    }

    #[test]
    fn crc_stamp_verify_roundtrip_and_detection() {
        let mut p = vec![0u8; 64];
        p[0] = 0xB1;
        p[40] = 0x07;
        assert!(
            verify_page_crc(&p),
            "unstamped (zero) CRC field must be accepted"
        );
        stamp_page_crc(&mut p);
        assert!(verify_page_crc(&p));
        // Every single-bit flip outside the CRC field is detected.
        for byte in (0..64).filter(|b| !(PAGE_CRC_OFFSET..PAGE_RESERVED_END).contains(b)) {
            p[byte] ^= 1;
            assert!(!verify_page_crc(&p), "flip at byte {byte} undetected");
            p[byte] ^= 1;
        }
        // Stamping is idempotent and LSN changes alter the checksum.
        let before = p.clone();
        stamp_page_crc(&mut p);
        assert_eq!(p, before);
        set_page_lsn(&mut p, 99);
        assert!(!verify_page_crc(&p), "the LSN field is covered");
        stamp_page_crc(&mut p);
        assert!(verify_page_crc(&p));
    }

    #[test]
    fn all_zero_page_verifies_and_stamps_nonzero() {
        let mut p = vec![0u8; 32];
        assert!(verify_page_crc(&p), "fresh zero page is checksum-clean");
        stamp_page_crc(&mut p);
        let stored = u32::from_le_bytes(p[PAGE_CRC_OFFSET..PAGE_RESERVED_END].try_into().unwrap());
        assert_ne!(stored, 0, "a stamped page never reads as unstamped");
        assert!(verify_page_crc(&p));
    }

    #[test]
    fn option_page_id_is_word_sized() {
        // NonZeroU32 gives us the niche: Option<PageId> costs nothing extra.
        assert_eq!(std::mem::size_of::<Option<PageId>>(), 4);
    }
}
