//! Micro-benchmarks and ablations for the individual kernels:
//!
//! - aggregation rules (FedAvg vs robust variants) — the per-round server
//!   cost;
//! - compact L-BFGS HVP vs the dense Algorithm-2-as-written
//!   materialisation — the ablation justifying the compact form
//!   (DESIGN.md §5);
//! - one full recovery round at the paper's MNIST model size, and what a
//!   pair refresh costs there (approximation build, stack rebuild);
//! - the MNIST CNN's layers and one whole client gradient at one client
//!   batch.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use fuiov_core::lbfgs::LbfgsApprox;
use fuiov_core::{stream_fedavg, RoundScratch, StackedLbfgs};
use fuiov_fl::aggregate::aggregate;
use fuiov_fl::AggregationRule;
use fuiov_storage::GradientDirection;
use fuiov_tensor::rng::rng_for;
use fuiov_tensor::{pool, vector};
use rand::Rng;
use std::hint::black_box;

fn random_vec(dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = rng_for(seed, dim as u64);
    (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn bench_aggregation(c: &mut Criterion) {
    let dim = 52_138; // paper MNIST CNN size
    let n = 20;
    let grads: Vec<Vec<f32>> = (0..n).map(|i| random_vec(dim, i as u64)).collect();
    let weights = vec![1.0f32; n];

    let mut group = c.benchmark_group("aggregate");
    group.throughput(Throughput::Elements((dim * n) as u64));
    for (label, rule) in [
        ("fedavg", AggregationRule::FedAvg),
        ("median", AggregationRule::CoordinateMedian),
        ("trimmed_mean", AggregationRule::TrimmedMean { trim: 2 }),
        ("sign_sgd", AggregationRule::SignSgd { lambda: 1e-3 }),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| black_box(aggregate(rule, &grads, &weights)));
        });
    }
    group.finish();
}

fn bench_lbfgs(c: &mut Criterion) {
    let mut group = c.benchmark_group("lbfgs");

    // HVP cost at realistic model sizes (s = 2 pairs, as in the paper).
    for &dim in &[13_692usize, 52_138] {
        let dws = vec![random_vec(dim, 1), random_vec(dim, 2)];
        let dgs: Vec<Vec<f32>> = dws
            .iter()
            .enumerate()
            .map(|(i, w)| {
                // dg = 2·dw + noise keeps curvature positive.
                let mut g = w.clone();
                fuiov_tensor::vector::scale(2.0, &mut g);
                fuiov_tensor::vector::axpy(0.01, &random_vec(dim, 10 + i as u64), &mut g);
                g
            })
            .collect();
        let approx = LbfgsApprox::new(&dws, &dgs).expect("valid pairs");
        let v = random_vec(dim, 99);
        group.throughput(Throughput::Elements(dim as u64));
        group.bench_with_input(BenchmarkId::new("hvp", dim), &dim, |b, _| {
            b.iter(|| black_box(approx.hvp(&v)));
        });
    }

    // Ablation: compact HVP vs materialising the dense Algorithm-2 matrix
    // (only feasible at toy sizes — which is the point).
    let dim = 64;
    let dws = vec![random_vec(dim, 1), random_vec(dim, 2)];
    let dgs: Vec<Vec<f32>> = dws
        .iter()
        .map(|w| {
            let mut g = w.clone();
            fuiov_tensor::vector::scale(2.0, &mut g);
            g
        })
        .collect();
    let approx = LbfgsApprox::new(&dws, &dgs).expect("valid pairs");
    let v = random_vec(dim, 5);
    group.bench_function("hvp_dim64", |b| b.iter(|| black_box(approx.hvp(&v))));
    group.bench_function("dense_materialise_dim64", |b| {
        b.iter(|| black_box(approx.dense()))
    });
    group.finish();
}

fn bench_pair_refresh(c: &mut Criterion) {
    // What one §IV-B pair refresh costs at the paper shape: rebuilding a
    // client's approximation from its s = 2 buffered pairs, and
    // re-stacking 99 remaining clients (4 factor rows each) for the next
    // fused sweep.
    let dim = 52_138;
    let dws = [random_vec(dim, 1), random_vec(dim, 2)];
    let dgs: Vec<Vec<f32>> = dws
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut g = w.clone();
            vector::scale(2.0, &mut g);
            vector::axpy(0.01, &random_vec(dim, 10 + i as u64), &mut g);
            g
        })
        .collect();

    let mut group = c.benchmark_group("lbfgs");
    group.throughput(Throughput::Elements((2 * 2 * dim) as u64));
    group.bench_function(BenchmarkId::new("build", "52138x2"), |b| {
        b.iter(|| black_box(LbfgsApprox::new(&dws, &dgs).expect("valid pairs")));
    });
    group.finish();

    let approx = LbfgsApprox::new(&dws, &dgs).expect("valid pairs");
    let clients = 99;
    let mut stacked = StackedLbfgs::build(dim, (0..clients).map(|cid| (cid, &approx)));
    let mut group = c.benchmark_group("stack");
    group.sample_size(10);
    // A rebuild records row handles; it copies no row.
    group.throughput(Throughput::Elements(stacked.total_columns() as u64));
    group.bench_function(BenchmarkId::new("rebuild", "99x4x52138"), |b| {
        b.iter(|| {
            stacked.rebuild((0..clients).map(|cid| (cid, &approx)));
            black_box(stacked.total_columns())
        });
    });
    group.finish();
}

fn bench_stack_kernels(c: &mut Criterion) {
    // The two per-round passes of the stacked engine at the paper shape,
    // on one pool thread: the inbound sweep (every stacked row dotted
    // with w̄ₜ − wₜ) and the outbound Eq. 6 corrections of 99 clients,
    // each into its own estimate row. Every client stacks the same s = 2
    // approximation, so their pairs share two ΔW rows, as after a pair
    // refresh that every client took part in.
    let dim = 52_138;
    let clients = 99;
    let dws = [random_vec(dim, 1), random_vec(dim, 2)];
    let dgs: Vec<Vec<f32>> = dws
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut g = w.clone();
            vector::scale(2.0, &mut g);
            vector::axpy(0.01, &random_vec(dim, 10 + i as u64), &mut g);
            g
        })
        .collect();
    let approx = LbfgsApprox::new(&dws, &dgs).expect("valid pairs");
    let stacked = StackedLbfgs::build(dim, (0..clients).map(|cid| (cid, &approx)));
    let v = random_vec(dim, 77);
    let mut scratch = RoundScratch::new();
    pool::set_threads(1);

    let mut group = c.benchmark_group("stack");
    group.sample_size(10);
    group.throughput(Throughput::Elements((clients * 2 * 2 * dim) as u64));
    group.bench_function(BenchmarkId::new("sweep", "99x2x52138"), |b| {
        b.iter(|| {
            stacked.fused_dots(&v, &mut scratch.dots);
            black_box(scratch.dots.len())
        });
    });
    stacked.fused_dots(&v, &mut scratch.dots);
    stacked.solve_middles(
        &scratch.dots,
        &mut scratch.ps,
        &mut scratch.rhs,
        &mut scratch.p,
    );
    // The corrections land in a one-block buffer, as in the streamed
    // replay round: client `e` writes row `e mod CLIP_LANES`.
    scratch.est.resize(vector::CLIP_LANES * dim, 0.0);
    group.bench_function(BenchmarkId::new("apply", "99x2x52138"), |b| {
        b.iter(|| {
            for entry in 0..clients {
                let slot = entry % vector::CLIP_LANES;
                let row = &mut scratch.est[slot * dim..(slot + 1) * dim];
                stacked.accumulate_correction(entry, &scratch.ps, &v, row);
            }
            black_box(scratch.est[0])
        });
    });
    group.finish();
    pool::set_threads(0);
}

fn bench_recovery_round(c: &mut Criterion) {
    // One server-side recovery round at paper MNIST size: n clients ×
    // (unpack + hvp + clip) + aggregation. This is the cost that replaces
    // a full round of client training in the paper's scheme.
    let dim = 52_138;
    let n = 20;
    let dws = vec![random_vec(dim, 1), random_vec(dim, 2)];
    let dgs: Vec<Vec<f32>> = dws
        .iter()
        .map(|w| {
            let mut g = w.clone();
            fuiov_tensor::vector::scale(2.0, &mut g);
            g
        })
        .collect();
    let approx = LbfgsApprox::new(&dws, &dgs).expect("valid pairs");
    let dirs: Vec<fuiov_storage::GradientDirection> = (0..n)
        .map(|i| fuiov_storage::GradientDirection::quantize(&random_vec(dim, i as u64), 1e-6))
        .collect();
    let dw = random_vec(dim, 77);
    let weights = vec![1.0f32; n];

    let mut group = c.benchmark_group("recovery_round");
    group.sample_size(10);
    group.throughput(Throughput::Elements((dim * n) as u64));
    group.bench_function("estimate_clip_aggregate_20clients_52k", |b| {
        b.iter(|| {
            let ests: Vec<Vec<f32>> = dirs
                .iter()
                .map(|d| {
                    let mut est = d.to_f32();
                    let corr = approx.hvp(&dw);
                    fuiov_tensor::vector::axpy(1.0, &corr, &mut est);
                    fuiov_tensor::vector::clip_elementwise(&mut est, 1.0);
                    est
                })
                .collect();
            black_box(aggregate(AggregationRule::FedAvg, &ests, &weights))
        });
    });
    // The same round through the pool's ordered fan-out (the exact code
    // shape `recover_set` now uses), pinned serial vs hardware-wide. The
    // two must produce identical bytes; only wall-clock may differ.
    for (label, threads) in [("serial", 1usize), ("parallel", 0usize)] {
        fuiov_tensor::pool::set_threads(threads);
        group.bench_function(format!("par_map_{label}_20clients_52k"), |b| {
            b.iter(|| {
                let ests = fuiov_tensor::pool::par_map(&dirs, 1, |_i, d| {
                    let mut est = d.to_f32();
                    let corr = approx.hvp(&dw);
                    fuiov_tensor::vector::axpy(1.0, &corr, &mut est);
                    fuiov_tensor::vector::clip_elementwise(&mut est, 1.0);
                    est
                });
                black_box(aggregate(AggregationRule::FedAvg, &ests, &weights))
            });
        });
    }
    fuiov_tensor::pool::set_threads(0);
    group.finish();
}

fn bench_batched_recovery_round(c: &mut Criterion) {
    // One full recovery round — per-client direction decode + Eq. 6 HVP
    // + clip + FedAvg — through the per-client reference path (scalar
    // sign decode, five-pass `hvp_reference`, owned estimate vectors)
    // versus the batched engine as the replay round runs it (LUT decode,
    // one fused stacked inbound sweep, then `stream_fedavg`: blocks of
    // rows clipped and folded into FedAvg, no n × d matrix). Both paths
    // are asserted bitwise identical before any timing.
    let dim = 13_692; // paper MNIST MLP size
    let n = 32usize;
    let dws = vec![random_vec(dim, 1), random_vec(dim, 2)];
    let dgs: Vec<Vec<f32>> = dws
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut g = w.clone();
            vector::scale(2.0, &mut g);
            vector::axpy(0.01, &random_vec(dim, 20 + i as u64), &mut g);
            g
        })
        .collect();
    let approx = LbfgsApprox::new(&dws, &dgs).expect("valid pairs");
    let dirs: Vec<GradientDirection> = (0..n)
        .map(|i| GradientDirection::quantize(&random_vec(dim, 100 + i as u64), 1e-6))
        .collect();
    let dw = random_vec(dim, 77);
    let weights = vec![1.0f32; n];

    let per_client_round = || {
        let ests: Vec<Vec<f32>> = dirs
            .iter()
            .map(|d| {
                let mut est: Vec<f32> = (0..d.len()).map(|i| f32::from(d.sign(i))).collect();
                let corr = approx.hvp_reference(&dw);
                vector::axpy(1.0, &corr, &mut est);
                vector::clip_elementwise(&mut est, 1.0);
                est
            })
            .collect();
        aggregate(AggregationRule::FedAvg, &ests, &weights)
    };

    // Every client gets its own stacked block, exactly as in recover_set
    // (here all blocks carry the same factors, which changes nothing about
    // the work performed per block).
    let stacked = StackedLbfgs::build(dim, (0..n).map(|cid| (cid, &approx)));
    let mut scratch = RoundScratch::new();
    let mut batched_round = || {
        stacked.fused_dots(&dw, &mut scratch.dots);
        stacked.solve_middles(
            &scratch.dots,
            &mut scratch.ps,
            &mut scratch.rhs,
            &mut scratch.p,
        );
        let (stacked_ref, ps, dirs_ref) = (&stacked, &scratch.ps, &dirs);
        stream_fedavg(
            dim,
            &weights,
            1.0,
            &mut scratch.est,
            &mut scratch.acc64,
            &mut scratch.agg,
            &mut (),
            |_, p, row| {
                dirs_ref[p].decode_into(row);
                let entry = stacked_ref.entry_for(p).expect("all clients stacked");
                stacked_ref.accumulate_correction(entry, ps, &dw, row);
            },
            |_, _, _| {},
        );
        scratch.agg.clone()
    };

    // Differential gate before timing: the two rounds must agree bit for
    // bit, or the speedup below measures the wrong computation.
    let reference = per_client_round();
    let batched = batched_round();
    assert_eq!(
        reference.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
        batched.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
        "batched round diverged from the per-client path"
    );

    let mut group = c.benchmark_group("recovery_round");
    group.sample_size(10);
    group.throughput(Throughput::Elements((dim * n) as u64));
    group.bench_function("per_client_32clients_13k", |b| {
        b.iter(|| black_box(per_client_round()));
    });
    group.bench_function("batched_32clients_13k", |b| {
        b.iter(|| black_box(batched_round()));
    });
    group.finish();
}

fn bench_direction(c: &mut Criterion) {
    // Word-level LUT decode (one 256-entry table lookup per packed byte,
    // four lanes copied at once) against the seed's per-element scalar
    // `sign(i)` extraction. Both write into the same preallocated buffer
    // so the comparison isolates decode cost. `quantize_52k` times the
    // other direction: one gradient packed to its 2-bit signs, as every
    // `record_gradient` and every sign upload does.
    let dim = 52_138;
    let grad = random_vec(dim, 3);
    let dir = GradientDirection::quantize(&grad, 1e-6);
    let mut out = vec![0.0f32; dim];

    let scalar: Vec<f32> = (0..dir.len()).map(|i| f32::from(dir.sign(i))).collect();
    dir.decode_into(&mut out);
    assert_eq!(
        scalar.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
        out.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
        "LUT decode diverged from scalar decode"
    );

    let mut group = c.benchmark_group("direction");
    group.throughput(Throughput::Elements(dim as u64));
    group.bench_function("decode_scalar_52k", |b| {
        b.iter(|| {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = f32::from(dir.sign(i));
            }
            black_box(out.last().copied())
        });
    });
    group.bench_function("decode_lut_52k", |b| {
        b.iter(|| {
            dir.decode_into(&mut out);
            black_box(out.last().copied())
        });
    });
    group.bench_function("quantize_52k", |b| {
        b.iter(|| black_box(GradientDirection::quantize(black_box(&grad), 1e-6)));
    });
    group.finish();
}

fn bench_simd_kernels(c: &mut Criterion) {
    // The SIMD pass headline: each of the vectorized kernels timed
    // with the dispatcher pinned to the AVX2 path versus the pinned scalar
    // reference. Every pair is asserted bitwise identical before any
    // timing — the speedup must measure the same computation. Pin the
    // pool to one thread so the comparison isolates lane-level ILP/width
    // gains from thread scaling.
    use fuiov_tensor::matrix::{row_dots, row_dots_scalar};
    use fuiov_tensor::simd;

    let _simd_guard = simd::force_guard();
    pool::set_threads(1);

    let mut group = c.benchmark_group("simd_vs_scalar");
    group.sample_size(20);

    // -- row_dots: the stacked-HVP inbound sweep (2s+1 rows × dim), each
    // row its own allocation as the stack's row handles are.
    let (rows, cols) = (96usize, 52_138usize);
    let mat: Vec<Vec<f32>> = (0..rows)
        .map(|r| random_vec(cols, 21_000 + r as u64))
        .collect();
    let v = random_vec(cols, 22);
    let mut dots_fast = vec![0.0f32; rows];
    let mut dots_slow = vec![0.0f32; rows];
    simd::set_forced(Some(true));
    row_dots(&mat, &v, &mut dots_fast);
    row_dots_scalar(&mat, &v, &mut dots_slow);
    assert_eq!(
        dots_fast.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
        dots_slow.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
        "row_dots SIMD path diverged from scalar"
    );
    group.throughput(Throughput::Elements((rows * cols) as u64));
    group.bench_function("row_dots_scalar_96x52k", |b| {
        b.iter(|| {
            row_dots_scalar(&mat, &v, &mut dots_slow);
            black_box(dots_slow.last().copied())
        });
    });
    simd::set_forced(Some(true));
    group.bench_function("row_dots_simd_96x52k", |b| {
        b.iter(|| {
            row_dots(&mat, &v, &mut dots_fast);
            black_box(dots_fast.last().copied())
        });
    });

    // -- the observed Eq. 7 clip pass over one replay block: four rows
    // clamped at ±1 with both norms per row, lane-parallel versus the
    // per-row scalar reference (the dispatcher pinned each way). Both
    // sides copy the unclipped block back before every pass.
    let lanes = vector::CLIP_LANES;
    let block_in: Vec<f32> = random_vec(lanes * cols, 23)
        .iter()
        .map(|x| 2.0 * x)
        .collect();
    let mut block = block_in.clone();
    let mut norms_fast = vec![(0.0f32, 0.0f32); lanes];
    let mut norms_slow = norms_fast.clone();
    vector::clip_elementwise_norms_rows(&mut block, cols, 1.0, &mut norms_fast);
    let clipped_fast = block.clone();
    block.copy_from_slice(&block_in);
    simd::set_forced(Some(false));
    vector::clip_elementwise_norms_rows(&mut block, cols, 1.0, &mut norms_slow);
    let pair_bits = |ns: &[(f32, f32)]| -> Vec<(u32, u32)> {
        ns.iter().map(|(a, b)| (a.to_bits(), b.to_bits())).collect()
    };
    assert_eq!(
        pair_bits(&norms_fast),
        pair_bits(&norms_slow),
        "clip pass SIMD norms diverged from scalar"
    );
    assert_eq!(
        clipped_fast
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<u32>>(),
        block.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
        "clip pass SIMD values diverged from scalar"
    );
    group.throughput(Throughput::Elements((lanes * cols) as u64));
    group.bench_function("clip_norms_scalar_4x52k", |b| {
        b.iter(|| {
            block.copy_from_slice(&block_in);
            vector::clip_elementwise_norms_rows(&mut block, cols, 1.0, &mut norms_slow);
            black_box(norms_slow[0])
        });
    });
    simd::set_forced(Some(true));
    group.bench_function("clip_norms_simd_4x52k", |b| {
        b.iter(|| {
            block.copy_from_slice(&block_in);
            vector::clip_elementwise_norms_rows(&mut block, cols, 1.0, &mut norms_fast);
            black_box(norms_fast[0])
        });
    });

    // -- direction decode: 2-bit sign unpack to f32, plus the fused
    // decode-and-accumulate (`acc += a · sign`) form the recovery loops
    // use. The plain unpack is store-bandwidth-bound (the scalar LUT is
    // already one 16-byte copy per packed byte), so the interesting
    // number is the compute-bound axpy.
    let dim = 52_138;
    let dir = GradientDirection::quantize(&random_vec(dim, 3), 1e-6);
    let mut dec_fast = vec![0.0f32; dim];
    let mut dec_slow = vec![0.0f32; dim];
    simd::set_forced(Some(true));
    dir.decode_into(&mut dec_fast);
    dir.decode_into_scalar(&mut dec_slow);
    assert_eq!(
        dec_fast.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
        dec_slow.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
        "direction decode SIMD path diverged from scalar"
    );
    let mut axpy_fast: Vec<f64> = (0..dim).map(|i| i as f64 * 1e-5).collect();
    let mut axpy_slow = axpy_fast.clone();
    dir.decode_axpy(0.125, &mut axpy_fast);
    dir.decode_axpy_scalar(0.125, &mut axpy_slow);
    assert_eq!(
        axpy_fast.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
        axpy_slow.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
        "direction decode_axpy SIMD path diverged from scalar"
    );
    group.throughput(Throughput::Elements(dim as u64));
    group.bench_function("direction_decode_scalar_52k", |b| {
        b.iter(|| {
            dir.decode_into_scalar(&mut dec_slow);
            black_box(dec_slow.last().copied())
        });
    });
    simd::set_forced(Some(true));
    group.bench_function("direction_decode_simd_52k", |b| {
        b.iter(|| {
            dir.decode_into(&mut dec_fast);
            black_box(dec_fast.last().copied())
        });
    });
    group.bench_function("direction_decode_axpy_scalar_52k", |b| {
        b.iter(|| {
            dir.decode_axpy_scalar(0.125, &mut axpy_slow);
            black_box(axpy_slow.last().copied())
        });
    });
    simd::set_forced(Some(true));
    group.bench_function("direction_decode_axpy_simd_52k", |b| {
        b.iter(|| {
            dir.decode_axpy(0.125, &mut axpy_fast);
            black_box(axpy_fast.last().copied())
        });
    });

    simd::set_forced(None);
    pool::set_threads(0);
    group.finish();
}

fn bench_delta_codec(c: &mut Criterion) {
    // Encode plus decode of one 52,138-element model against its base,
    // as a spill writes and a cold read reconstructs it. `base + 1e-3 ·
    // step` with uniform noise gives varint widths of 0.3 % / 32 % / 67 %
    // at 1 / 2 / 3 bytes (counted with `encoded_len` over this input),
    // close to the 59 delta-coded models in `forget-storm`'s spill file
    // at seed 0 (0.5 % / 24 % / 70 % / 5 % at 1 / 2 / 3 / 4 bytes).
    use fuiov_storage::delta;

    let dim = 52_138;
    let base = random_vec(dim, 41);
    let step = random_vec(dim, 42);
    let cur: Vec<f32> = base.iter().zip(&step).map(|(b, s)| b + 1e-3 * s).collect();
    let mut buf = Vec::new();
    delta::encode(&base, &cur, &mut buf);
    let back = delta::decode(&base, &buf, dim).expect("roundtrip");
    assert_eq!(
        back.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
        cur.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
        "delta codec roundtrip is not bitwise exact"
    );

    let mut group = c.benchmark_group("history");
    group.throughput(Throughput::Elements(dim as u64));
    group.bench_function("delta_roundtrip_52k", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            delta::encode(&base, &cur, &mut buf);
            black_box(delta::decode(&base, &buf, dim))
        });
    });
    group.finish();
}

fn bench_history_tiering(c: &mut Criterion) {
    // The tiered-store claim: under a tight in-memory budget the history
    // keeps a small hot set resident (delta-coded cold rounds live in the
    // spill file) and streaming replay through `RoundView` stays within
    // a small factor of the all-in-memory replay. Both replays are
    // asserted bitwise identical before any timing.
    use fuiov_storage::{HistoryStore, TierConfig};

    let dim = 52_138; // paper MNIST CNN size
    let n = 16usize;
    let rounds = 24usize;
    let build = |tier: TierConfig| -> HistoryStore {
        let mut h = HistoryStore::with_tier(1e-6, tier);
        for cid in 0..n {
            h.record_join(cid, 0);
        }
        let mut w = random_vec(dim, 7);
        for t in 0..rounds {
            h.record_model(t, w.clone());
            for cid in 0..n {
                h.record_gradient(t, cid, &random_vec(dim, (t * n + cid) as u64));
            }
            vector::axpy(-1e-3, &random_vec(dim, 1_000 + t as u64), &mut w);
        }
        h.record_model(rounds, w);
        h
    };
    // One streaming replay pass F..T through the batched engine: per
    // round, dw_t = w̄ − w_t, one fused stacked inbound sweep, per-client
    // LUT direction decode + Eq. 6 correction + clip, FedAvg, step — the
    // exact `recover_set` round, sourcing every model and direction
    // through the store's `RoundView`.
    let dws = vec![random_vec(dim, 1), random_vec(dim, 2)];
    let dgs: Vec<Vec<f32>> = dws
        .iter()
        .map(|w| {
            let mut g = w.clone();
            vector::scale(2.0, &mut g);
            g
        })
        .collect();
    let approx = LbfgsApprox::new(&dws, &dgs).expect("valid pairs");
    let stacked = StackedLbfgs::build(dim, (0..n).map(|cid| (cid, &approx)));
    let replay = |h: &HistoryStore| -> Vec<f32> {
        let mut params = h.model(0).expect("round 0").to_vec();
        let mut scratch = RoundScratch::new();
        let mut dw_t = vec![0.0f32; dim];
        let weights = vec![1.0f32; n];
        for t in 0..rounds {
            let view = h.round_view(t);
            let w_t = view.model().expect("replay model");
            vector::sub_into(&params, w_t, &mut dw_t);
            stacked.fused_dots(&dw_t, &mut scratch.dots);
            stacked.solve_middles(
                &scratch.dots,
                &mut scratch.ps,
                &mut scratch.rhs,
                &mut scratch.p,
            );
            let roster: Vec<_> = view.directions().collect();
            let (ps, dw_ref) = (&scratch.ps, &dw_t);
            stream_fedavg(
                dim,
                &weights[..roster.len()],
                1.0,
                &mut scratch.est,
                &mut scratch.acc64,
                &mut scratch.agg,
                &mut (),
                |_, p, row| {
                    let (cid, dir) = &roster[p];
                    dir.decode_into(row);
                    let entry = stacked.entry_for(*cid).expect("all clients stacked");
                    stacked.accumulate_correction(entry, ps, dw_ref, row);
                },
                |_, _, _| {},
            );
            vector::axpy(-0.05, &scratch.agg, &mut params);
        }
        params
    };

    let hot = build(TierConfig::unbounded());
    // Budget ≈ two rounds of f32 checkpoints: everything older spills.
    let budget = 2 * dim * 4;
    let cold = build(TierConfig::bounded(budget));
    assert!(
        cold.spilled_bytes() > 0,
        "budget must force the cold store to spill"
    );

    let logical = hot.model_bytes() + hot.direction_bytes();
    let resident = cold.resident_bytes();
    eprintln!(
        "[history] logical {} B vs resident {} B over {rounds} rounds \
         ({:.1}x resident reduction; {} B delta-coded on disk, {} B/model-round stored)",
        logical,
        resident,
        logical as f64 / resident as f64,
        cold.spilled_bytes(),
        cold.model_bytes_stored() / (rounds + 1),
    );
    assert!(
        resident * 4 <= logical,
        "tiering must cut resident history bytes at least 4x: {resident} vs {logical}"
    );

    // Differential gate: the spilled stream must replay the same bits.
    let reference = replay(&hot);
    let streamed = replay(&cold);
    assert_eq!(
        reference.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
        streamed.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
        "cold-store streaming replay diverged from the in-memory replay"
    );

    let mut group = c.benchmark_group("history");
    group.sample_size(10);
    group.throughput(Throughput::Elements((dim * n * rounds) as u64));
    group.bench_function("replay_hot_16c_52k", |b| {
        b.iter(|| black_box(replay(&hot)));
    });
    group.bench_function("replay_cold_stream_16c_52k", |b| {
        b.iter(|| black_box(replay(&cold)));
    });
    group.finish();
}

fn bench_nn_layers(c: &mut Criterion) {
    // The layers of the paper's MNIST CNN at one client batch (50): conv1
    // 1→8 @ 28², conv2 8→16 @ 14², the ReLU and 2×2 max pool after conv1,
    // fc1 784→64, and one whole client gradient; also the GTSRB CNN's
    // convolutions (3→8 @ 32², 8→16 @ 16²), whose widths leave pixels
    // after the last 7-pixel tile of a row, and conv2 at batch 10, the
    // second mini-batch of a 60-sample client. The layers take their
    // input by value; each iteration gets a fresh copy from an untimed
    // setup (`iter_batched`), so the numbers time the layer alone. The
    // conv backward runs on the gradient that ReLU and 2×2 max pooling
    // hand it in training, so at least three quarters of it is exactly
    // zero. In training conv1 runs only `backward_params`: nothing reads
    // the gradient of the model's input.
    use fuiov_nn::layers::{Conv2d, Layer, Linear, MaxPool2, Relu};
    use fuiov_nn::{ModelSpec, Tensor4};
    use rand::SeedableRng;

    let batch = 50;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let input = |rng: &mut rand::rngs::StdRng, n: usize, c: usize, hw: usize| {
        let len = n * c * hw * hw;
        Tensor4::from_vec(
            n,
            c,
            hw,
            hw,
            (0..len).map(|_| rng.gen_range(0.0f32..1.0)).collect(),
        )
    };

    let mut group = c.benchmark_group("conv2d");
    group.sample_size(10);
    let shapes = [
        (1usize, 8usize, 28usize, batch),
        (8, 16, 14, batch),
        (8, 16, 14, 10),
        (3, 8, 32, batch),
        (8, 16, 16, batch),
    ];
    for &(ch_in, ch_out, hw, n) in &shapes {
        let mut conv = Conv2d::new(&mut rng, ch_in, ch_out);
        let x = input(&mut rng, n, ch_in, hw);
        let label = if n == batch {
            format!("{ch_in}x{ch_out}@{hw}")
        } else {
            format!("{ch_in}x{ch_out}@{hw}/b{n}")
        };
        group.throughput(Throughput::Elements(
            (n * ch_out * hw * hw * ch_in * 9) as u64,
        ));
        group.bench_function(BenchmarkId::new("forward", &label), |b| {
            b.iter_batched(|| x.clone(), |x| conv.forward(x), BatchSize::PerIteration);
        });
        let (mut relu, mut pool) = (Relu::new(), MaxPool2::new());
        let pooled = pool.forward(relu.forward(conv.forward(x.clone())));
        let upstream = input(&mut rng, n, ch_out, hw / 2);
        assert_eq!(pooled.shape(), upstream.shape());
        let g = relu.backward(pool.backward(upstream));
        group.bench_function(BenchmarkId::new("backward", &label), |b| {
            b.iter_batched(|| g.clone(), |g| conv.backward(g), BatchSize::PerIteration);
        });
        group.bench_function(BenchmarkId::new("backward_params", &label), |b| {
            b.iter_batched(
                || g.clone(),
                |g| conv.backward_params(g),
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();

    // Half the conv1 output is negative, as for a freshly initialised
    // layer; the ReLU keeps one bit per element. Each iteration gets its
    // own copy of that input, so every forward sees it unrectified.
    let (ch, hw) = (8, 28);
    let label = format!("{batch}x{ch}@{hw}");
    let mut centred = input(&mut rng, batch, ch, hw);
    centred.as_mut_slice().iter_mut().for_each(|v| *v -= 0.5);
    let mut group = c.benchmark_group("relu");
    group.sample_size(10);
    group.throughput(Throughput::Elements((batch * ch * hw * hw) as u64));
    let mut relu = Relu::new();
    group.bench_function(BenchmarkId::new("forward", &label), |b| {
        b.iter_batched(
            || centred.clone(),
            |x| relu.forward(x),
            BatchSize::PerIteration,
        );
    });
    let upstream = input(&mut rng, batch, ch, hw);
    group.bench_function(BenchmarkId::new("backward", &label), |b| {
        b.iter_batched(
            || upstream.clone(),
            |g| relu.backward(g),
            BatchSize::PerIteration,
        );
    });
    group.finish();

    let mut group = c.benchmark_group("maxpool2");
    group.sample_size(10);
    group.throughput(Throughput::Elements((batch * ch * hw * hw) as u64));
    let mut pool = MaxPool2::new();
    let x = input(&mut rng, batch, ch, hw);
    group.bench_function(BenchmarkId::new("forward", &label), |b| {
        b.iter_batched(|| x.clone(), |x| pool.forward(x), BatchSize::PerIteration);
    });
    let upstream = input(&mut rng, batch, ch, hw / 2);
    group.bench_function(BenchmarkId::new("backward", &label), |b| {
        b.iter_batched(
            || upstream.clone(),
            |g| pool.backward(g),
            BatchSize::PerIteration,
        );
    });
    group.finish();

    let mut group = c.benchmark_group("linear");
    group.sample_size(10);
    let (fin, fout) = (784, 64);
    let mut fc = Linear::new(&mut rng, fin, fout);
    let x = input(&mut rng, batch, fin, 1);
    group.throughput(Throughput::Elements((batch * fin * fout) as u64));
    group.bench_function(BenchmarkId::new("forward", format!("{fin}x{fout}")), |b| {
        b.iter_batched(|| x.clone(), |x| fc.forward(x), BatchSize::PerIteration);
    });
    group.finish();

    // One client gradient: forward, loss and backward of the whole MNIST
    // CNN on a batch of 50, as `train-cell` runs 20 times per round.
    let mut group = c.benchmark_group("nn");
    group.sample_size(10);
    let spec = ModelSpec::mnist();
    let mut model = spec.build(1);
    let x = input(&mut rand::rngs::StdRng::seed_from_u64(2), batch, 1, 28);
    let labels: Vec<usize> = (0..batch).map(|i| i % spec.classes()).collect();
    group.bench_function("mnist_grad_b50", |b| {
        b.iter(|| black_box(model.loss_and_grad(&x, &labels)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_aggregation,
    bench_lbfgs,
    bench_pair_refresh,
    bench_stack_kernels,
    bench_recovery_round,
    bench_batched_recovery_round,
    bench_direction,
    bench_simd_kernels,
    bench_delta_codec,
    bench_history_tiering,
    bench_nn_layers
);
criterion_main!(benches);
