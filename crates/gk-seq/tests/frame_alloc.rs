//! Allocation bound of `read_frame` against a hostile length prefix.
//!
//! A client can declare a payload of up to `MAX_FRAME_BYTES` (256 MiB) and
//! then send almost nothing. The reader must not reserve the declared size
//! before the bytes arrive: this test counts every byte the process allocates
//! while one such frame is read and checks that the peak stays small.
//!
//! The file holds a single test so no other test thread allocates while the
//! counter is being read.

use gk_seq::frame::{read_frame, MAX_FRAME_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::ErrorKind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System`, plus a count of the live bytes and their high-water mark.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counters are
// plain atomics and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same caller contract as `System::alloc`, to which it forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // SAFETY: same caller contract as `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // SAFETY: same caller contract as `System::dealloc`; `ptr` came from
    // this allocator, hence from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    // SAFETY: same caller contract as `System::realloc`; `ptr` came from
    // this allocator, hence from `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_short_body_under_a_maximal_prefix_allocates_little() {
    let mut wire = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&[0u8; 16]);

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let result = read_frame(&mut wire.as_slice());
    let peak = PEAK.load(Ordering::SeqCst) - before;

    let err = result.expect_err("a 16-byte body cannot fill a MAX_FRAME_BYTES frame");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert!(
        peak < 1 << 20,
        "read_frame peaked at {peak} bytes for a 16-byte body"
    );
}
