//! End-to-end training tests for the paper's CNN architectures (reduced
//! scale): the substrate must actually learn, not just have correct
//! gradients.

use fuiov_nn::{ModelSpec, Sequential, Tensor4};
use fuiov_tensor::vector;
use rand::{Rng, SeedableRng};

/// A tiny separable task: class = quadrant of the brightest blob in an
/// 8×8 image. Convolutions + pooling solve this easily; a broken
/// substrate doesn't.
fn blob_dataset(n: usize, seed: u64) -> (Tensor4, Vec<usize>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * 64);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let label = rng.gen_range(0..4usize);
        let (cy, cx): (i32, i32) = match label {
            0 => (2, 2),
            1 => (2, 6),
            2 => (6, 2),
            _ => (6, 6),
        };
        let jy = cy + rng.gen_range(-1..=1);
        let jx = cx + rng.gen_range(-1..=1);
        for y in 0..8i32 {
            for x in 0..8i32 {
                let d2 = ((y - jy).pow(2) + (x - jx).pow(2)) as f32;
                let v = (-d2 / 3.0).exp() + rng.gen_range(0.0..0.15);
                data.push(v.min(1.0));
            }
        }
        labels.push(label);
    }
    (Tensor4::from_vec(n, 1, 8, 8, data), labels)
}

/// Heavy-ball SGD step: `v ← 0.9·v + g`, then `p ← p − lr·v`.
fn momentum_step(velocity: &mut [f32], params: &mut [f32], grad: &[f32], lr: f32) {
    for (v, g) in velocity.iter_mut().zip(grad) {
        *v = 0.9 * *v + g;
    }
    vector::axpy(-lr, velocity, params);
}

fn train(model: &mut Sequential, x: &Tensor4, y: &[usize], steps: usize, lr: f32) -> f32 {
    let mut velocity = vec![0.0; model.param_count()];
    for _ in 0..steps {
        let (_, grad) = model.loss_and_grad(x, y);
        let mut p = model.params();
        momentum_step(&mut velocity, &mut p, &grad, lr);
        model.set_params(&p);
    }
    model.accuracy(x, y)
}

#[test]
fn cnn_two_fc_learns_blob_quadrants() {
    let spec = ModelSpec::CnnTwoFc {
        in_ch: 1,
        h: 8,
        w: 8,
        c1: 4,
        c2: 4,
        hidden: 16,
        classes: 4,
    };
    let mut m = spec.build(5);
    let (x, y) = blob_dataset(48, 1);
    let acc = train(&mut m, &x, &y, 60, 0.1);
    assert!(acc > 0.9, "CnnTwoFc should master the blob task: {acc}");

    // Generalisation to a fresh draw of the same task.
    let (xt, yt) = blob_dataset(32, 2);
    let test_acc = m.accuracy(&xt, &yt);
    assert!(test_acc > 0.7, "should generalise: {test_acc}");
}

#[test]
fn cnn_one_fc_learns_blob_quadrants() {
    let spec = ModelSpec::CnnOneFc {
        in_ch: 1,
        h: 8,
        w: 8,
        c1: 4,
        c2: 4,
        classes: 4,
    };
    let mut m = spec.build(6);
    let (x, y) = blob_dataset(48, 3);
    let acc = train(&mut m, &x, &y, 60, 0.1);
    assert!(acc > 0.9, "CnnOneFc should master the blob task: {acc}");
}
