//! The CI `perf-smoke` floor: the lockstep engine's batching win on the
//! event-skip-bound MLP.
//!
//! ```text
//! cargo run --release -p bsnn-bench --bin lockstep_floor -- [--min-mlp-b16-speedup X]
//! ```
//!
//! Trains the MLP 144-32-10 briefly, converts it, and times 64-step
//! lockstep runs at widths 1 and 16. It prints one line: both
//! lane-steps/s figures and their ratio. With `--min-mlp-b16-speedup X`
//! it exits 1 when batch 16's lane-steps/s falls below `X ×` batch 1's.
//! The floor is a ratio of two widths of the same engine on the same
//! machine, so it needs no per-runner calibration. Both sides run the
//! lockstep engine; the scalar engine is the untimed reference and is
//! not measured here.
//!
//! This binary writes no record. End-to-end numbers come from the
//! benchmark (`BENCHMARK.json`, run by `perfbench/`), and per-width
//! timings of both models from `cargo bench -p bsnn-bench --bench
//! batched_sim`.

use bsnn_core::batch::{BatchedNetwork, BatchedStepwiseInference};
use bsnn_core::coding::CodingScheme;
use bsnn_core::convert::{convert, ConversionConfig};
use bsnn_core::simulator::EvalConfig;
use bsnn_core::{ProfileSink, SpikingNetwork};
use bsnn_data::SynthSpec;
use bsnn_dnn::models;
use bsnn_dnn::train::{TrainConfig, Trainer};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SIM_STEPS: usize = 64;
const SIM_REPS: usize = 5;

/// The MLP 144-32-10 trained for 2 epochs on 60/8 synthetic digits and
/// converted under the recommended coding, with the test images.
fn train_mlp() -> (SpikingNetwork, Vec<Vec<f32>>, CodingScheme) {
    let (train, test) = SynthSpec::digits().with_counts(60, 8).generate();
    let mut dnn = models::mlp(144, &[32], 10, 5).expect("mlp");
    Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 30,
        lr: 2e-3,
        ..TrainConfig::default()
    })
    .fit(&mut dnn, &train, &test)
    .expect("training");
    let scheme = CodingScheme::recommended();
    let norm = train.batch(&(0..40).collect::<Vec<_>>()).0;
    let snn = convert(&mut dnn, &norm, &ConversionConfig::new(scheme)).expect("conversion");
    let images: Vec<Vec<f32>> = (0..test.len()).map(|i| test.image(i).to_vec()).collect();
    (snn, images, scheme)
}

/// Best-of-N wall clock of `f`, in seconds.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Lane-steps per second of one lockstep batch over `images[..width]`,
/// best of [`SIM_REPS`] runs on a fresh engine with a profile sink.
fn batched_steps_per_sec(
    net: &SpikingNetwork,
    images: &[Vec<f32>],
    cfg: &EvalConfig,
    width: usize,
) -> f64 {
    let mut engine = BatchedNetwork::new(net.clone(), width).expect("engine");
    engine.set_profile_sink(Some(Arc::new(ProfileSink::new(net.layers().len() + 1))));
    let refs: Vec<&[f32]> = images[..width].iter().map(|v| v.as_slice()).collect();
    let secs = best_secs(SIM_REPS, || {
        let mut run = BatchedStepwiseInference::new(&mut engine, &refs, cfg).expect("run");
        while run.advance().expect("step") {}
        for lane in 0..width {
            black_box(run.prediction(lane));
        }
    });
    (width * SIM_STEPS) as f64 / secs
}

fn main() {
    let mut min_mlp_b16_speedup: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--min-mlp-b16-speedup" => {
                min_mlp_b16_speedup = Some(
                    it.next()
                        .expect("missing value for --min-mlp-b16-speedup")
                        .parse()
                        .expect("floor must be a number"),
                )
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (usage: lockstep_floor [--min-mlp-b16-speedup X])"
                );
                std::process::exit(2);
            }
        }
    }

    let (mlp, images, scheme) = train_mlp();
    let cfg = EvalConfig::new(scheme, SIM_STEPS);
    // The 2.15 floor was calibrated on runs that time both widths with
    // the profile sink attached and batch 1 on image 0 alone, and each
    // choice moves the ratio. On a 2-vCPU x86-64 host the sink slowed
    // width 1 to about 0.6x of its sink-off rate but width 16 only to
    // about 0.9x, which raises the ratio; image 0 runs faster than the
    // average image (images 0-15 back to back ran at about 0.75x its
    // rate), which lowers it. The sink off alone read a median 1.66,
    // and both changed read 2.16-2.19 against 2.53-2.60 as measured
    // here, so change either one only together with the floor.
    let b1 = batched_steps_per_sec(&mlp, &images, &cfg, 1);
    // Batch 16 takes the best of three rounds to shed host drift.
    let b16 = (0..3)
        .map(|_| batched_steps_per_sec(&mlp, &images, &cfg, 16))
        .fold(0.0f64, f64::max);
    let speedup = b16 / b1;
    println!(
        "mlp 144-32-10, {SIM_STEPS} steps: batch1 {b1:.0} lane-steps/s, \
         batch16 {b16:.0} lane-steps/s, batch16/batch1 {speedup:.2}"
    );
    if let Some(floor) = min_mlp_b16_speedup {
        if speedup < floor {
            eprintln!(
                "FAIL: mlp batch-16 speedup over batch 1 {speedup:.2}x below the {floor:.2}x floor"
            );
            std::process::exit(1);
        }
    }
}
