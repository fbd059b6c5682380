//! A history record can pass its FNV check and still carry a count field
//! that claims about 4 Gi entries. Decoding such a stream must fail typed
//! and must never ask the allocator for the claimed size: no single
//! request may exceed the size of the input being decoded.
//!
//! This binary installs a global allocator that records the largest
//! request a thread makes while its probe is armed, and refuses any
//! request above [`REFUSE`], so a decoder that sizes a buffer from an
//! unchecked count aborts the run instead of reserving gigabytes.
//!
//! The same probe pins the record path's one allocation: quantising a
//! gradient asks for its packed directions and nothing larger.

use fuiov_storage::segment::{decode_history, encode_history, reseal, SegmentDecodeError};
use fuiov_storage::segment::{framed_len, HEADER_LEN, ROUND_FIELD_OFFSET};
use fuiov_storage::{GradientDirection, HistoryStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Requests above this size are refused outright.
const REFUSE: usize = 64 << 20;

thread_local! {
    /// The largest request this thread made since it armed its probe;
    /// `None` while unarmed. Per thread, so tests running side by side
    /// do not see each other's requests.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Records `size` while armed; `false` refuses the request.
fn observe(size: usize) -> bool {
    LARGEST.with(|largest| {
        if let Some(seen) = largest.get() {
            largest.set(Some(seen.max(size)));
        }
    });
    size <= REFUSE
}

/// Runs `f` with this thread's probe armed; returns its result and the
/// largest allocation request it made.
fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(Some(0)));
    let out = f();
    let seen = LARGEST.with(Cell::take).expect("probe armed");
    (out, seen)
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, or returns null — which `GlobalAlloc` permits to signal an
// allocation failure — without touching memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !observe(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is what `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !observe(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !observe(new_size) {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Three clients, one 128-element model and one round of directions: a
/// roster, a keyframe and a directions record.
fn stream() -> Vec<u8> {
    let mut h = HistoryStore::new(1e-6);
    for c in 0..3 {
        h.record_join(c, 0);
    }
    h.record_model(0, (0..128).map(|j| j as f32).collect());
    for c in 0..3 {
        let g: Vec<f32> = (0..128).map(|j| ((j + c) % 3) as f32 - 1.0).collect();
        h.record_gradient(0, c, &g);
    }
    encode_history(&h).unwrap()
}

/// Byte offset of the `i`-th record in `stream`.
fn record_offset(stream: &[u8], i: usize) -> usize {
    (0..i).fold(0, |at, _| at + framed_len(&stream[at..]).unwrap())
}

/// `stream` with the `i`-th record's bytes at `field` (relative to the
/// record start) overwritten by `value`, then resealed.
fn with_field(stream: &[u8], i: usize, field: usize, value: &[u8]) -> Vec<u8> {
    let mut out = stream.to_vec();
    let at = record_offset(stream, i);
    let end = at + framed_len(&stream[at..]).unwrap();
    out[at + field..at + field + value.len()].copy_from_slice(value);
    reseal(&mut out[at..end]);
    out
}

#[test]
fn oversized_count_fields_fail_typed_within_the_input_size() {
    let clean = stream();
    // Warm-up outside the probe: one-time allocations (environment
    // lookups, metric registration) are not the decoder's.
    assert!(decode_history(&clean).is_ok());

    let cases = [
        // A roster claiming 2³² records.
        (
            "roster",
            with_field(&clean, 0, ROUND_FIELD_OFFSET, &(1u64 << 32).to_le_bytes()),
        ),
        // A keyframe claiming 2³² − 1 elements.
        (
            "keyframe",
            with_field(&clean, 1, HEADER_LEN, &u32::MAX.to_le_bytes()),
        ),
        // A directions record claiming 2³² − 1 clients.
        (
            "directions",
            with_field(&clean, 2, HEADER_LEN, &u32::MAX.to_le_bytes()),
        ),
    ];
    for (name, input) in cases {
        let (result, largest) = largest_request(|| decode_history(&input));
        assert_eq!(
            result.map(|_| ()),
            Err(SegmentDecodeError::Truncated),
            "{name}"
        );
        assert!(
            largest <= input.len(),
            "{name}: largest allocation request {largest} B exceeds the {} B input",
            input.len()
        );
    }
}

#[test]
fn quantising_asks_only_for_the_packed_directions() {
    // The paper's MNIST-CNN dimension: 52,138 elements pack into
    // ⌈52,138 / 4⌉ = 13,035 bytes, a quarter of a one-byte-per-sign pass.
    const DIM: usize = 52_138;
    const PACKED: usize = 13_035;
    let grad: Vec<f32> = (0..DIM).map(|j| (j % 5) as f32 - 2.0).collect();

    let (dir, largest) = largest_request(|| GradientDirection::quantize(&grad, 0.5));
    assert_eq!(dir.byte_size(), PACKED);
    assert_eq!(largest, PACKED, "quantize");

    let mut h = HistoryStore::new(0.5);
    h.record_model(0, vec![0.0; DIM]);
    h.record_join(0, 0);
    let ((), largest) = largest_request(|| h.record_gradient(0, 0, &grad));
    assert_eq!(largest, PACKED, "record_gradient");
    assert_eq!(h.direction(0, 0).as_deref(), Some(&dir));
}
