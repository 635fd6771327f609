//! Global-memory buffers with synthetic device addresses.
//!
//! Buffers are allocated from a bump allocator with 256-byte alignment
//! (mirroring `cudaMalloc`), so the *byte address* of every element is
//! known and coalescing can be computed exactly — including the partially
//! filled 128-byte segments at the edges of a misaligned compressed block,
//! which is precisely the inefficiency Optimization 2 of the paper
//! attacks.

use std::marker::PhantomData;

/// Size of a global-memory transaction segment, in bytes.
///
/// The paper (Section 4.2, Optimization 2): "The granularity of reads from
/// global memory is 128 bytes".
pub const SEGMENT_BYTES: u64 = 128;

/// Threads per warp. Accesses are coalesced at warp granularity.
pub const WARP_SIZE: usize = 32;

/// Alignment of device allocations, matching `cudaMalloc` behaviour.
pub const ALLOC_ALIGN: u64 = 256;

/// Scalar element types that can live in simulated global memory.
///
/// Sealed to the primitive integer/float types the workspace uses; the
/// byte width drives address computation for coalescing.
pub trait Scalar: Copy + Default + 'static {
    /// Size of the scalar in bytes on the device.
    const BYTES: u64;

    /// Whether the fault injector may bit-flip buffers of this type.
    /// Only `u32` — the word streams that carry encoded columns, the
    /// persisted state a deployment actually ships around — is
    /// corruptible; plain working buffers stay clean so fault campaigns
    /// exercise *detection* rather than trivially corrupting outputs.
    const CORRUPTIBLE: bool = false;

    /// View a buffer of this type as raw 32-bit words for fault
    /// injection; `None` for non-corruptible types.
    fn as_words_mut(_data: &mut [Self]) -> Option<&mut [u32]> {
        None
    }
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {
        $(impl Scalar for $t { const BYTES: u64 = std::mem::size_of::<$t>() as u64; })*
    };
}
impl_scalar!(u8, i8, u16, i16, i32, u64, i64, f32, f64);

impl Scalar for u32 {
    const BYTES: u64 = 4;
    const CORRUPTIBLE: bool = true;

    fn as_words_mut(data: &mut [Self]) -> Option<&mut [u32]> {
        Some(data)
    }
}

/// A typed allocation in simulated global memory.
///
/// The payload is an ordinary `Vec<T>`; the `base` field is the synthetic
/// device byte address used for segment accounting. All *accounted*
/// accesses go through [`crate::BlockCtx`]; tests and host-side code can
/// inspect contents freely via [`GlobalBuffer::as_slice_unaccounted`].
#[derive(Debug)]
pub struct GlobalBuffer<T: Scalar> {
    base: u64,
    data: Vec<T>,
    _marker: PhantomData<T>,
}

impl<T: Scalar> GlobalBuffer<T> {
    pub(crate) fn new(base: u64, data: Vec<T>) -> Self {
        debug_assert_eq!(base % ALLOC_ALIGN, 0, "device allocations are 256B-aligned");
        Self {
            base,
            data,
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the allocation in bytes (what a PCIe transfer would move).
    pub fn size_bytes(&self) -> u64 {
        self.data.len() as u64 * T::BYTES
    }

    /// Device byte address of element `idx`.
    #[inline]
    pub fn addr_of(&self, idx: usize) -> u64 {
        debug_assert!(idx <= self.data.len());
        self.base + idx as u64 * T::BYTES
    }

    /// Host-side view of the contents. Does **not** count as device
    /// traffic — use only for verification, setup, and host code.
    pub fn as_slice_unaccounted(&self) -> &[T] {
        &self.data
    }

    /// Host-side mutable view. Does **not** count as device traffic.
    pub fn as_mut_slice_unaccounted(&mut self) -> &mut [T] {
        &mut self.data
    }

    pub(crate) fn get(&self, idx: usize) -> T {
        self.data[idx]
    }

    pub(crate) fn put(&mut self, idx: usize, v: T) {
        self.data[idx] = v;
    }

    pub(crate) fn range(&self, start: usize, len: usize) -> &[T] {
        &self.data[start..start + len]
    }

    pub(crate) fn range_mut(&mut self, start: usize, len: usize) -> &mut [T] {
        &mut self.data[start..start + len]
    }
}

/// Number of distinct 128-byte segments covered by the contiguous byte
/// range `[addr, addr + bytes)`. Zero-length ranges touch no segments.
#[inline]
pub fn segments_for_range(addr: u64, bytes: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    (addr + bytes - 1) / SEGMENT_BYTES - addr / SEGMENT_BYTES + 1
}

/// Most distinct segments one warp access can touch: each of the 32
/// lanes covers its first and last byte's segment.
const MAX_WARP_SEGMENTS: usize = 2 * WARP_SIZE;

/// Slots of the open-addressed set used for non-monotone warps: a power
/// of two at least twice [`MAX_WARP_SEGMENTS`], so probes stay short.
const SET_SLOTS: usize = 2 * MAX_WARP_SEGMENTS;

/// Shift that maps a 64-bit Fibonacci hash onto a slot index.
const SET_SHIFT: u32 = 64 - SET_SLOTS.trailing_zeros();

/// Empty-slot marker. Segment ids are byte addresses divided by 128, so
/// no real id reaches `u64::MAX`.
const EMPTY_SLOT: u64 = u64::MAX;

/// Call `visit` once for each distinct 128-byte segment touched by a
/// warp-sized access of `width`-byte elements at the given byte
/// addresses: the segment of each lane's first byte and, for a
/// non-zero width, of its last byte. Nothing is allocated or sorted.
///
/// Monotone addresses of elements no wider than a segment (block
/// starts, checksums, contiguous runs) take a linear pass: each lane
/// then covers one or two adjacent segments, starting no earlier than
/// the previous lane's, so a lane adds exactly the segments past the
/// highest one seen. Everything else (random probes) goes through a
/// small fixed-size open-addressed set on the stack.
pub fn for_each_warp_segment(addrs: &[u64], width: u64, mut visit: impl FnMut(u64)) {
    assert!(addrs.len() <= WARP_SIZE, "gather must be per-warp");
    let last_byte = width.max(1) - 1;
    if width <= SEGMENT_BYTES && addrs.windows(2).all(|w| w[0] <= w[1]) {
        // First segment not yet visited.
        let mut next = 0u64;
        for &a in addrs {
            let (first, last) = (a / SEGMENT_BYTES, (a + last_byte) / SEGMENT_BYTES);
            for seg in first.max(next)..=last {
                visit(seg);
            }
            next = next.max(last + 1);
        }
        return;
    }
    let mut slots = [EMPTY_SLOT; SET_SLOTS];
    let mut insert = |seg: u64| {
        // Fibonacci hashing onto the table's index bits, linear probing.
        let mut i = (seg.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> SET_SHIFT) as usize;
        loop {
            match slots[i] {
                EMPTY_SLOT => {
                    slots[i] = seg;
                    visit(seg);
                    return;
                }
                s if s == seg => return,
                _ => i = (i + 1) & (SET_SLOTS - 1),
            }
        }
    };
    for &a in addrs {
        let (first, last) = (a / SEGMENT_BYTES, (a + last_byte) / SEGMENT_BYTES);
        insert(first);
        if last != first {
            insert(last);
        }
    }
}

/// Number of distinct 128-byte segments touched by a warp-sized gather
/// of `width`-byte elements at the given byte addresses.
///
/// This is the coalescing rule: accesses from one warp that fall into the
/// same segment are combined into a single transaction; an element that
/// straddles a segment boundary touches both.
#[inline]
pub fn segments_for_gather(addrs: &[u64], width: u64) -> u64 {
    let mut count = 0;
    for_each_warp_segment(addrs, width, |_| count += 1);
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_segments_aligned() {
        assert_eq!(segments_for_range(0, 128), 1);
        assert_eq!(segments_for_range(0, 129), 2);
        assert_eq!(segments_for_range(0, 256), 2);
        assert_eq!(segments_for_range(128, 128), 1);
    }

    #[test]
    fn range_segments_misaligned() {
        // A 258-byte block starting mid-segment spans 3-4 segments, the
        // inefficiency the paper's Optimization 2 amortizes away.
        assert_eq!(segments_for_range(64, 258), 3);
        assert_eq!(segments_for_range(120, 258), 3);
        assert_eq!(segments_for_range(0, 258), 3);
        assert_eq!(segments_for_range(126, 260), 4);
    }

    #[test]
    fn range_segments_zero() {
        assert_eq!(segments_for_range(512, 0), 0);
    }

    #[test]
    fn gather_broadcast_is_one_segment() {
        let addrs = [4096u64; 32];
        assert_eq!(segments_for_gather(&addrs, 4), 1);
    }

    #[test]
    fn gather_contiguous_u32_warp_is_one_segment() {
        let addrs: Vec<u64> = (0..32).map(|i| 4096 + i * 4).collect();
        assert_eq!(segments_for_gather(&addrs, 4), 1);
    }

    #[test]
    fn gather_strided_is_fully_diverged() {
        // 128-byte stride: every lane in its own segment.
        let addrs: Vec<u64> = (0..32).map(|i| i * 128).collect();
        assert_eq!(segments_for_gather(&addrs, 4), 32);
    }

    #[test]
    fn gather_straddling_counts_both_segments() {
        // One 8-byte element crossing a segment boundary.
        assert_eq!(segments_for_gather(&[124], 8), 2);
    }

    #[test]
    fn buffer_addressing() {
        let buf = GlobalBuffer::<u32>::new(512, vec![0; 16]);
        assert_eq!(buf.addr_of(0), 512);
        assert_eq!(buf.addr_of(4), 528);
        assert_eq!(buf.size_bytes(), 64);
        assert_eq!(buf.len(), 16);
        assert!(!buf.is_empty());
    }
}
