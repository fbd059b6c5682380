//! Bit pins for CNN training at the paper's shapes.
//!
//! For the MNIST CNN and the GTSRB CNN, on seeded batches of 50 and of 10
//! (the two batch sizes one RSU-cell client trains with: 60 samples at
//! batch 50), these tests digest the exact bits of `loss_and_grad` (the
//! loss and the flat gradient), of `predict`, and of `loss_and_grad` again
//! after one SGD step (so the bias paths run with non-zero biases). The pinned values are those of the plain scalar conv
//! and linear loops (the test references in `conv2d.rs` and `linear.rs`);
//! every build must reproduce them bit for bit, portable and
//! `target-cpu=native` alike.

use fuiov_nn::{ModelSpec, Tensor4};
use rand::{Rng, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, word: u32) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fnv_f32(h: &mut u64, vals: &[f32]) {
    for v in vals {
        fnv(h, v.to_bits());
    }
}

/// A seeded batch: about 40 % of the pixels are exactly `0.0` (like a
/// digit's background), the rest uniform in `[0, 1)`.
fn batch(spec: ModelSpec, n: usize, seed: u64) -> (Tensor4, Vec<usize>) {
    let (c, h, w) = spec.input_shape();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data = (0..n * c * h * w)
        .map(|_| {
            if rng.gen_bool(0.4) {
                0.0
            } else {
                rng.gen_range(0.0f32..1.0)
            }
        })
        .collect();
    let labels = (0..n).map(|_| rng.gen_range(0..spec.classes())).collect();
    (Tensor4::from_vec(n, c, h, w, data), labels)
}

/// `(loss_and_grad, predict, loss_and_grad after one SGD step)` digests.
fn digests(spec: ModelSpec, n: usize, seed: u64) -> [u64; 3] {
    let mut model = spec.build(seed);
    let (x, y) = batch(spec, n, seed ^ 0x5eed);
    let mut out = [FNV_OFFSET; 3];

    let (loss, grad) = model.loss_and_grad(&x, &y);
    fnv_f32(&mut out[0], &[loss]);
    fnv_f32(&mut out[0], &grad);

    for class in model.predict(&x) {
        fnv(
            &mut out[1],
            u32::try_from(class).expect("class index fits u32"),
        );
    }

    let mut params = model.params();
    fuiov_tensor::vector::axpy(-0.05, &grad, &mut params);
    model.set_params(&params);
    let (loss, grad) = model.loss_and_grad(&x, &y);
    fnv_f32(&mut out[2], &[loss]);
    fnv_f32(&mut out[2], &grad);
    out
}

fn check(name: &str, spec: ModelSpec, seed: u64, pinned: [(usize, [u64; 3]); 2]) {
    let mut drift = Vec::new();
    for (n, want) in pinned {
        let got = digests(spec, n, seed);
        if got != want {
            drift.push(format!("batch {n}: got {got:x?}, pinned {want:x?}"));
        }
    }
    assert!(
        drift.is_empty(),
        "{name} bits drifted:\n{}",
        drift.join("\n")
    );
}

#[test]
fn mnist_cnn_bits_are_pinned() {
    check(
        "ModelSpec::mnist()",
        ModelSpec::mnist(),
        1,
        [
            (
                50,
                [0xe3890d1d6f55a2f4, 0xd3cb4e9c85ab4b74, 0xc3ab5a15fd6f40af],
            ),
            (
                10,
                [0xa67524c6dcc87f71, 0x87ed22c30dc6a9d3, 0x64ded2a0cdb8ef70],
            ),
        ],
    );
}

#[test]
fn gtsrb_cnn_bits_are_pinned() {
    check(
        "ModelSpec::gtsrb(12)",
        ModelSpec::gtsrb(12),
        2,
        [
            (
                50,
                [0x59abb6aa1a5829d3, 0xcd49bde0b368ee2f, 0xf674ce8271b8d14c],
            ),
            (
                10,
                [0xea6adddce4465750, 0x2e393fd9eb381965, 0x1f6100878d362091],
            ),
        ],
    );
}
