//! The snapshot loader must not let a length field drive allocation.
//! `*.bsnn` files arrive from a watched directory, so a truncated or
//! hostile stream that declares a huge buffer must fail with a typed
//! error after allocating little more than the bytes it really holds.
//!
//! A counting global allocator records the largest single request made
//! while each stream loads. It is process-global, so this file holds a
//! single test: no other test in the binary can allocate alongside it.

use bsnn_core::snapshot::load_network;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`], recording the largest single allocation request.
struct CountingAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Largest single allocation the loader may make on a stream of a few
/// dozen bytes.
const LIMIT: usize = 1 << 20;

fn u32s(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[test]
fn declared_lengths_do_not_drive_allocation() {
    const MAGIC: &[u8] = b"BSNN";
    // v6 header and width word, a density-threshold list declaring
    // 2^28 floats, one float, then EOF (20 bytes).
    let mut huge_thresholds = MAGIC.to_vec();
    huge_thresholds.extend(u32s(&[6, 0, 1 << 28]));
    huge_thresholds.extend(0.5f32.to_le_bytes());
    // v6 header, width word, three empty crossover lists, no
    // flags, then one int8 table declaring 16384 × 16384 codes and EOF.
    let mut huge_table = MAGIC.to_vec();
    huge_table.extend(u32s(&[6, 0, 0, 0, 0, 0, 1]));
    huge_table.push(1);
    huge_table.extend(u32s(&[16384, 16384]));
    // v1 (no metadata): no hidden layers, then a dense output synapse
    // whose weight buffer declares 2^28 floats and holds two.
    let mut huge_weights = MAGIC.to_vec();
    huge_weights.extend(u32s(&[1, 4, 0, 0, 4, 1 << 26, 1 << 28]));
    huge_weights.extend([0u8; 8]);
    for (name, stream) in [
        ("density thresholds", &huge_thresholds),
        ("int8 table", &huge_table),
        ("weight buffer", &huge_weights),
    ] {
        LARGEST.store(0, Ordering::Relaxed);
        let result = load_network(stream.as_slice());
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(result.is_err(), "{name}: a truncated stream loaded");
        assert!(
            largest <= LIMIT,
            "{name}: a {}-byte stream made a {largest}-byte allocation",
            stream.len()
        );
    }
}
