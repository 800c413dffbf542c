//! Quickstart: train a small DNN, convert it to a spiking network with
//! the paper's best hybrid coding (phase input + burst hidden), and
//! compare it with classic rate coding.
//!
//! Run with: `cargo run --release --example quickstart`

use burst_snn::core::coding::{CodingScheme, HiddenCoding, InputCoding};
use burst_snn::core::convert::{convert, ConversionConfig};
use burst_snn::core::simulator::{evaluate_dataset_batched, EvalConfig};
use burst_snn::data::SynthSpec;
use burst_snn::dnn::models;
use burst_snn::dnn::train::{TrainConfig, Trainer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic MNIST-like dataset (offline stand-in; see DESIGN.md).
    let (train, test) = SynthSpec::digits().with_counts(60, 15).generate();
    println!(
        "dataset: {} ({} train / {} test images, {} classes)",
        train.name(),
        train.len(),
        test.len(),
        train.num_classes()
    );

    // 2. Train the source DNN (ReLU + average pooling, conversion-ready).
    let mut dnn = models::cnn_digits(1, 12, 12, 10, 7)?;
    let report = Trainer::new(TrainConfig {
        epochs: 6,
        batch_size: 32,
        lr: 1.5e-3,
        ..TrainConfig::default()
    })
    .fit(&mut dnn, &train, &test)?;
    println!("DNN test accuracy: {:.2}%", report.test_accuracy * 100.0);

    // 3. Convert to SNNs: the paper's phase-burst versus classic rate.
    let norm_batch = train.batch(&(0..32).collect::<Vec<_>>()).0;
    let steps = 128;
    for scheme in [
        CodingScheme::new(InputCoding::Phase, HiddenCoding::Burst),
        CodingScheme::new(InputCoding::Real, HiddenCoding::Rate),
    ] {
        let cfg = ConversionConfig::new(scheme).with_vth(0.125);
        let snn = convert(&mut dnn, &norm_batch, &cfg)?;
        // One thread stepping lockstep batches of 16 images; the results
        // are bit-identical to the scalar reference `evaluate_dataset`.
        let eval = evaluate_dataset_batched(
            &snn,
            &test,
            &EvalConfig::new(scheme, steps)
                .with_checkpoint_every(16)
                .with_max_images(50),
            1,
            16,
        )?;
        let latency = eval
            .latency_to(report.test_accuracy - 0.02)
            .map_or("not reached".to_string(), |(t, _)| format!("{t} steps"));
        println!(
            "\nSNN [{scheme}]: accuracy {:.2}% | latency to DNN-2%: {latency} | \
             {:.0} spikes/image | spiking density {:.4}",
            eval.final_accuracy() * 100.0,
            eval.final_mean_spikes(),
            eval.final_spiking_density(),
        );
    }
    Ok(())
}
