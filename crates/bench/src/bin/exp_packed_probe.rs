//! Microbenchmark for the packed bit-plane kernel: kernel-level
//! dense/packed costs across a density grid, plus the cost of
//! building spike bit-planes during fire (Auto mode) relative to a
//! plane-free forced-dense engine.
//!
//! This is a diagnostic, not a gate: run it when the packed kernel's
//! dispatch behaviour looks off (`exp_bench_record --require-packed`
//! failing, unexpected crossovers) to see which strategy wins each
//! (shape, density) cell on this machine, with the engine overheads
//! stripped away.
//!
//! ```text
//! cargo run --release -p bsnn-bench --bin exp_packed_probe
//! ```

use std::hint::black_box;
use std::time::Instant;

use bsnn_core::batch::{BatchedNetwork, BatchedStepwiseInference, DispatchMode, DispatchPolicy};
use bsnn_core::coding::{CodingScheme, HiddenCoding, InputCoding};
use bsnn_core::layer::{SpikingLayer, ThresholdPolicy};
use bsnn_core::simulator::EvalConfig;
use bsnn_core::synapse::{KernelScratch, Synapse};
use bsnn_core::SpikingNetwork;
use bsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WIDTH: usize = 16;
const REPS: usize = 7;

/// Best-of-N wall clock of `f`, in nanoseconds.
fn best_nanos(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

/// Inputs at the requested per-element density: power-of-two multiples
/// of `base` (on-plane, the traffic the packed kernel is built for).
fn density_input(rng: &mut StdRng, len: usize, base: f32, density: f32) -> Vec<f32> {
    (0..len * WIDTH)
        .map(|_| {
            if rng.gen_range(0.0..1.0f32) < density {
                base * 2.0f32.powi(rng.gen_range(-6..=2))
            } else {
                0.0
            }
        })
        .collect()
}

/// Times one (shape, density) cell: ns per kernel call for the dense,
/// self-packing packed, and plane-fed packed strategies.
fn kernel_cell(rng: &mut StdRng, n_in: usize, n_out: usize, density: f32) {
    let base = 0.4f32;
    let weight: Vec<f32> = (0..n_in * n_out)
        .map(|_| rng.gen_range(-1.0..1.0f32))
        .collect();
    let syn = Synapse::Dense {
        weight: Tensor::from_vec(weight, &[n_in, n_out]).unwrap(),
    };
    let input = density_input(rng, n_in, base, density);
    let masks: Vec<u64> = input
        .chunks_exact(WIDTH)
        .map(|lanes| {
            lanes
                .iter()
                .enumerate()
                .fold(0u64, |m, (b, &s)| m | ((s != 0.0) as u64) << b)
        })
        .collect();
    let mut psp = vec![0.0f32; n_out * WIDTH];
    let mut scratch = KernelScratch::default();
    let iters = (1 << 22) / (n_in * n_out).max(1);
    let per = |nanos: f64| nanos / iters as f64;
    let dense = best_nanos(REPS, || {
        for _ in 0..iters {
            syn.accumulate_batch(&input, &mut psp, WIDTH).unwrap();
        }
        black_box(&psp);
    });
    let packed = best_nanos(REPS, || {
        for _ in 0..iters {
            syn.accumulate_batch_packed(&input, &mut psp, WIDTH, Some(base), &mut scratch)
                .unwrap();
        }
        black_box(&psp);
    });
    let planes = best_nanos(REPS, || {
        for _ in 0..iters {
            syn.accumulate_batch_packed_planes(&input, &mut psp, WIDTH, &masks, None, Some(base))
                .unwrap();
        }
        black_box(&psp);
    });
    println!(
        "  {n_in:>4}x{n_out:<4} d={density:<5} dense {:>8.0} ns  \
         packed(self) {:>8.0} ns  packed(planes) {:>8.0} ns  best={}",
        per(dense),
        per(packed),
        per(planes),
        {
            let cells = [
                (per(dense), "dense"),
                (per(packed), "packed-self"),
                (per(planes), "packed-planes"),
            ];
            cells
                .iter()
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .map(|c| c.1)
                .unwrap_or("?")
        }
    );
}

/// A random MLP with the bench workload's shape and the recommended
/// phase-burst coding: enough to exercise fire, staging, and dispatch
/// with realistic spike traffic.
fn random_mlp(rng: &mut StdRng) -> SpikingNetwork {
    let dense = |rng: &mut StdRng, n_in: usize, n_out: usize| Synapse::Dense {
        weight: Tensor::from_vec(
            (0..n_in * n_out)
                .map(|_| rng.gen_range(-0.3..0.5f32))
                .collect(),
            &[n_in, n_out],
        )
        .unwrap(),
    };
    let hidden = SpikingLayer::new(
        dense(rng, 144, 32),
        None,
        ThresholdPolicy::Burst {
            vth: 0.25,
            beta: 2.0,
        },
    )
    .unwrap();
    SpikingNetwork::new(144, vec![hidden], dense(rng, 32, 10), None).unwrap()
}

/// Lane-steps/s of one full lockstep presentation under `dispatch`,
/// printing the per-stage kernel profile of the last rep.
fn engine_rate(net: &SpikingNetwork, images: &[Vec<f32>], dispatch: &DispatchPolicy) -> f64 {
    let scheme = CodingScheme::new(InputCoding::Phase, HiddenCoding::Burst);
    let cfg = EvalConfig::new(scheme, 64);
    let sink = std::sync::Arc::new(bsnn_core::ProfileSink::new(net.layers().len() + 1));
    let mut engine = BatchedNetwork::new(net.clone(), WIDTH).expect("engine");
    engine.set_dispatch(dispatch.clone());
    engine.set_profile_sink(Some(std::sync::Arc::clone(&sink)));
    let refs: Vec<&[f32]> = images.iter().map(|v| v.as_slice()).collect();
    let secs = best_nanos(REPS, || {
        sink.reset();
        let mut run = BatchedStepwiseInference::new(&mut engine, &refs, &cfg).expect("run");
        while run.advance().expect("step") {}
        for lane in 0..WIDTH {
            black_box(run.prediction(lane));
        }
    }) / 1e9;
    for (k, s) in sink.snapshot().stages.iter().enumerate() {
        println!(
            "    stage {k}: dense {} packed {} quant {} cached {}  density {:.3}  kernel {:.3} ms",
            s.dense_steps,
            s.packed_steps,
            s.quant_steps,
            s.cached_steps,
            s.mean_density,
            s.kernel_nanos as f64 / 1e6,
        );
    }
    (WIDTH * 64) as f64 / secs
}

fn main() {
    let mut rng = StdRng::seed_from_u64(4242);
    println!("kernel grid (width {WIDTH}, best of {REPS}):");
    for (n_in, n_out) in [(144usize, 32usize), (32, 10), (128, 128), (512, 64)] {
        for density in [0.02f32, 0.05, 0.1, 0.2, 0.4] {
            kernel_cell(&mut rng, n_in, n_out, density);
        }
    }

    // Engine-level: Auto with crossovers pinned to the smallest
    // positive density runs the forced-dense kernel schedule on every
    // spiking step *plus* the bit-plane build in fire, so the delta
    // between the two rows is the cost of packing planes (almost)
    // nobody consumes — the price Auto pays for the option. (Exactly
    // 0.0 would no longer measure this: the engine skips plane builds
    // entirely when no stage can consume them.)
    let net = random_mlp(&mut rng);
    let images: Vec<Vec<f32>> = (0..WIDTH)
        .map(|_| (0..144).map(|_| rng.gen_range(0.0..1.0f32)).collect())
        .collect();
    let dense_only = DispatchPolicy::forced(DispatchMode::ForceDense);
    let auto_pinned_dense = DispatchPolicy {
        mode: DispatchMode::Auto,
        packed_thresholds: vec![f32::MIN_POSITIVE; 2],
        quant_thresholds: vec![0.0; 2],
        quant_eligible: vec![false; 2],
        ..DispatchPolicy::default()
    };
    let packed_forced = DispatchPolicy::forced(DispatchMode::ForcePacked);
    println!("\nengine (random 144-32-10 MLP, phase-burst, batch {WIDTH}, 64 steps):");
    // Interleave the measurements so machine drift hits all rows alike.
    let mut rows = [0.0f64; 3];
    for _ in 0..3 {
        rows[0] = rows[0].max(engine_rate(&net, &images, &dense_only));
        rows[1] = rows[1].max(engine_rate(&net, &images, &auto_pinned_dense));
        rows[2] = rows[2].max(engine_rate(&net, &images, &packed_forced));
    }
    println!("  forced-dense            {:>12.0} lane-steps/s", rows[0]);
    println!(
        "  auto (dense + planes)   {:>12.0} lane-steps/s  ({:+.1}% vs forced-dense)",
        rows[1],
        (rows[1] / rows[0] - 1.0) * 100.0
    );
    println!(
        "  forced-packed           {:>12.0} lane-steps/s  ({:+.1}% vs forced-dense)",
        rows[2],
        (rows[2] / rows[0] - 1.0) * 100.0
    );
}
