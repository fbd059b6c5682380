//! One client gradient at the paper's shapes asks the allocator for a
//! bounded number of bytes.
//!
//! The layers take and return tensors by value: `Relu` and `Flatten` work
//! in place, `Conv2d` and `Linear` keep their input by move, the ReLU and
//! max-pool caches are a bit set and one byte per window, and
//! backpropagation stops at the first parametric layer, so no input
//! gradient of the first convolution is ever built. This binary installs a
//! global allocator that sums the bytes a thread requests while its probe
//! is armed, and pins that sum for one `loss_and_grad` at batch 50 of the
//! MNIST CNN and of the GTSRB CNN. A change that copies a tensor again, or
//! computes a gradient nobody reads, fails here.

use fuiov_nn::{ModelSpec, Tensor4};
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread requested since it armed its probe; `None` while
    /// unarmed. Per thread, so tests running side by side do not see each
    /// other's requests.
    static REQUESTED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Adds `size` to this thread's sum while armed.
fn observe(size: usize) {
    REQUESTED.with(|sum| {
        if let Some(seen) = sum.get() {
            sum.set(Some(seen + size));
        }
    });
}

/// Runs `f` with this thread's probe armed; returns its result and the
/// bytes it requested.
fn bytes_requested<T>(f: impl FnOnce() -> T) -> (T, usize) {
    REQUESTED.with(|sum| sum.set(Some(0)));
    let out = f();
    let seen = REQUESTED.with(Cell::take).expect("probe armed");
    (out, seen)
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, without touching memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        observe(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is what `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        observe(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        observe(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A seeded batch of 50, as one RSU-cell client trains with.
fn batch(spec: ModelSpec) -> (Tensor4, Vec<usize>) {
    let (c, h, w) = spec.input_shape();
    let n = 50;
    let mut rng = rand::rngs::StdRng::seed_from_u64(50);
    let data = (0..n * c * h * w)
        .map(|_| rng.gen_range(0.0f32..1.0))
        .collect();
    let labels = (0..n).map(|_| rng.gen_range(0..spec.classes())).collect();
    (Tensor4::from_vec(n, c, h, w, data), labels)
}

/// Bytes requested by the second `loss_and_grad` on one batch (the first
/// also sizes the layers' reusable caches).
fn grad_bytes(spec: ModelSpec) -> usize {
    let mut model = spec.build(3);
    let (x, y) = batch(spec);
    let _ = model.loss_and_grad(&x, &y);
    let ((loss, grad), bytes) = bytes_requested(|| model.loss_and_grad(&x, &y));
    assert!(loss.is_finite());
    assert_eq!(grad.len(), model.param_count());
    bytes
}

/// `bytes` is the `measured` total within a margin of 1 %. That is about
/// 57 KB at MNIST, less than any of the batch's feature maps (the
/// smallest, the second pool's output, is 156,800 B), so one more copy of
/// one fails the pin, and so do the totals of the earlier layers that
/// borrowed their input and cloned it (12,230,680 B at MNIST, 17,170,676 B
/// at GTSRB). A change that lowers the total on purpose moves the pin down
/// with it.
fn check(name: &str, bytes: usize, measured: usize) {
    let margin = measured / 100;
    assert!(
        bytes.abs_diff(measured) <= margin,
        "{name}: one loss_and_grad requested {bytes} B; pinned at {measured} B ± {margin} B"
    );
}

#[test]
fn mnist_gradient_requests_stay_pinned() {
    check("MNIST batch 50", grad_bytes(ModelSpec::mnist()), 5_691_288);
}

#[test]
fn gtsrb_gradient_requests_stay_pinned() {
    check(
        "GTSRB batch 50",
        grad_bytes(ModelSpec::gtsrb(43)),
        7_799_028,
    );
}
