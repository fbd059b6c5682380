//! Runtime-dispatched SIMD: one probe, one kill switch, bitwise-pinned
//! scalar fallbacks.
//!
//! Every vector kernel in this workspace (the stacked-HVP inbound sweep
//! [`crate::matrix::row_dots`], the replay round's lane-parallel clip
//! pass, the packed sign decode and the delta codec in `fuiov-storage`)
//! is written twice: a scalar reference
//! that *defines* the bits, and an AVX2 path that must reproduce them
//! exactly. This module owns the decision of which one runs:
//!
//! 1. compile-time: non-`x86_64` targets have no AVX2 path at all — the
//!    scalar reference is the only code that exists;
//! 2. run-time probe: `is_x86_feature_detected!("avx2")` (FMA presence is
//!    probed and reported too, but fused multiply-adds are **never**
//!    emitted — an FMA rounds once where `mul` + `add` round twice, which
//!    would change bits; see DESIGN.md §5);
//! 3. kill switch: `FUIOV_SIMD=0` (or `false`/`off`) forces the scalar
//!    path even on capable hosts — this is how the tier-1 gate replays
//!    the golden traces on both paths;
//! 4. programmatic override: [`set_forced`] lets tests and benches pin
//!    either path in-process (forcing SIMD on still requires the probe to
//!    succeed — the override can never select an illegal instruction).
//!
//! The contract the dispatch relies on: **both paths produce identical
//! bytes for every input**, so switching mid-run (or mixing paths across
//! threads) is observationally invisible. The per-kernel proptests pin
//! this across every tail-residue class (`crates/tensor/tests/simd_props.rs`,
//! `crates/storage/tests/simd_props.rs`).

use std::sync::atomic::{AtomicI8, Ordering};
use std::sync::OnceLock;

/// What the one-time probe found on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caps {
    /// AVX2 available (the gate for every vector kernel in the tree).
    pub avx2: bool,
    /// FMA available. Detected and reported for diagnostics only: no
    /// kernel emits fused multiply-adds, because fusing changes rounding
    /// and would break the bitwise scalar contract.
    pub fma: bool,
}

/// Probes the host once (the result never changes within a process).
pub fn caps() -> Caps {
    static CAPS: OnceLock<Caps> = OnceLock::new();
    *CAPS.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            Caps {
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                fma: std::arch::is_x86_feature_detected!("fma"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Caps {
                avx2: false,
                fma: false,
            }
        }
    })
}

/// `FUIOV_SIMD` environment default, read once: unset or anything other
/// than `0`/`false`/`off` means "use SIMD when the host can".
fn env_default() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        !matches!(
            std::env::var("FUIOV_SIMD").as_deref().map(str::trim),
            Ok("0") | Ok("false") | Ok("off")
        )
    })
}

/// Programmatic override: −1 = unset (env + probe decide), 0 = force
/// scalar, 1 = force SIMD-if-capable.
static FORCED: AtomicI8 = AtomicI8::new(-1);

/// Pins the dispatch for this process: `Some(false)` forces the scalar
/// reference, `Some(true)` forces the AVX2 path (subject to the probe —
/// on a host without AVX2 this still resolves to scalar), `None` returns
/// the decision to `FUIOV_SIMD` and the probe.
///
/// The override is global; tests that toggle it and *assert on the
/// dispatch itself* should serialise on [`force_guard`]. Toggling never
/// changes output bytes — both paths are bitwise identical — so kernels
/// racing a toggle still agree.
pub fn set_forced(mode: Option<bool>) {
    FORCED.store(mode.map_or(-1, i8::from), Ordering::Relaxed);
}

/// Whether the vector path is selected right now.
#[inline]
pub fn enabled() -> bool {
    let want = match FORCED.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => env_default(),
    };
    want && caps().avx2
}

/// Serialises tests/benches that flip [`set_forced`] and assert on the
/// resulting dispatch (cross-crate sibling of the pool's test guard).
pub fn force_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One cache line of `f32`s — the allocation quantum of [`AVec`].
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy)]
struct Lane64([f32; 16]);

/// A growable `f32` buffer whose storage is 64-byte aligned: the arena
/// type for the replay scratch (`RoundScratch`), so the vectors the SIMD
/// sweeps stream — `w̄ₜ−wₜ`, the fused dots, the stacked estimate rows —
/// start on a cache-line boundary and never straddle one at offset 0.
///
/// The kernels use unaligned load/store instructions throughout (matrix
/// rows land at arbitrary offsets), so alignment is a throughput nicety,
/// not a correctness requirement; see DESIGN.md §5.
///
/// Only the small slice-like API the scratch arena needs is provided;
/// everything else goes through `Deref<Target = [f32]>`.
#[derive(Default, Clone)]
pub struct AVec {
    buf: Vec<Lane64>,
    len: usize,
}

impl AVec {
    /// An empty aligned buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no elements are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all elements, keeping the allocation.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Resizes to `new_len`, filling any newly exposed element with
    /// `value` (matching `Vec::resize`: the retained prefix is untouched).
    pub fn resize(&mut self, new_len: usize, value: f32) {
        let lanes = new_len.div_ceil(16);
        if self.buf.len() < lanes {
            self.buf.resize(lanes, Lane64([0.0; 16]));
        }
        let old = self.len;
        self.len = new_len;
        if new_len > old {
            for slot in &mut self.as_mut_slice()[old..] {
                *slot = value;
            }
        }
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, src: &[f32]) {
        let old = self.len;
        self.resize(old + src.len(), 0.0);
        self.as_mut_slice()[old..].copy_from_slice(src);
    }

    /// The live elements.
    pub fn as_slice(&self) -> &[f32] {
        // SAFETY: `Lane64` is `repr(C)` over `[f32; 16]`, so the lane
        // buffer is a contiguous f32 array with at least `len` elements
        // (resize keeps `buf.len() * 16 >= len`).
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr().cast::<f32>(), self.len) }
    }

    /// The live elements, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: as `as_slice`, and `&mut self` guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.buf.as_mut_ptr().cast::<f32>(), self.len) }
    }
}

impl std::ops::Deref for AVec {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for AVec {
    fn deref_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

impl std::fmt::Debug for AVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for AVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_is_stable_and_consistent() {
        assert_eq!(caps(), caps());
        // `enabled` may be true only where the probe allows it.
        if enabled() {
            assert!(caps().avx2);
        }
    }

    #[test]
    fn forcing_scalar_disables_dispatch() {
        let _g = force_guard();
        set_forced(Some(false));
        assert!(!enabled());
        set_forced(Some(true));
        assert_eq!(enabled(), caps().avx2);
        set_forced(None);
    }

    #[test]
    fn avec_is_aligned_and_resizes_like_vec() {
        let mut a = AVec::new();
        assert!(a.is_empty());
        a.resize(5, 1.5);
        assert_eq!(a.as_slice(), &[1.5; 5]);
        assert_eq!(a.as_ptr() as usize % 64, 0, "base must be 64B aligned");
        // Prefix survives a grow; new tail takes the fill value.
        a.as_mut_slice()[0] = -2.0;
        a.resize(20, 0.25);
        assert_eq!(a[0], -2.0);
        assert_eq!(&a[5..], &[0.25; 15]);
        // Shrink then regrow: the regrown region is refilled, not stale.
        a.resize(2, 0.0);
        a.resize(8, 9.0);
        assert_eq!(&a[2..], &[9.0; 6]);
        a.clear();
        assert_eq!(a.len(), 0);
        a.extend_from_slice(&[1.0, 2.0]);
        assert_eq!(a.as_slice(), &[1.0, 2.0]);
        assert_eq!(format!("{a:?}"), "[1.0, 2.0]");
    }
}
