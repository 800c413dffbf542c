//! Hybrid coding exploration: evaluate all nine input×hidden coding
//! combinations on one trained network and rank them — the workflow a
//! deployment engineer would use to pick a coding scheme for a target
//! accuracy/energy budget (the paper's Section 3.2 analysis).
//!
//! Run with: `cargo run --release --example hybrid_coding`

use burst_snn::core::coding::CodingScheme;
use burst_snn::core::convert::{convert, ConversionConfig};
use burst_snn::core::simulator::{evaluate_dataset_batched, EvalConfig};
use burst_snn::data::SynthSpec;
use burst_snn::dnn::models;
use burst_snn::dnn::train::{TrainConfig, Trainer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train, test) = SynthSpec::digits().with_counts(60, 12).generate();
    let mut dnn = models::cnn_digits(1, 12, 12, 10, 7)?;
    let report = Trainer::new(TrainConfig {
        epochs: 6,
        batch_size: 32,
        lr: 1.5e-3,
        ..TrainConfig::default()
    })
    .fit(&mut dnn, &train, &test)?;
    println!("DNN accuracy: {:.2}%\n", report.test_accuracy * 100.0);

    let norm_batch = train.batch(&(0..32).collect::<Vec<_>>()).0;
    let steps = 160;
    let target = report.test_accuracy - 0.01;

    println!(
        "{:<12} {:>8} {:>10} {:>12} {:>10}",
        "scheme", "acc(%)", "latency", "spikes/img", "density"
    );
    let mut results = Vec::new();
    for scheme in CodingScheme::all() {
        let cfg = ConversionConfig::new(scheme).with_vth(0.125);
        let snn = convert(&mut dnn, &norm_batch, &cfg)?;
        let eval = evaluate_dataset_batched(
            &snn,
            &test,
            &EvalConfig::new(scheme, steps)
                .with_checkpoint_every(8)
                .with_max_images(40),
            1,
            16,
        )?;
        let latency = eval.latency_to(target);
        println!(
            "{:<12} {:>8.2} {:>10} {:>12.0} {:>10.4}",
            scheme.to_string(),
            eval.final_accuracy() * 100.0,
            latency.map_or("-".into(), |(t, _)| t.to_string()),
            eval.final_mean_spikes(),
            eval.final_spiking_density()
        );
        results.push((scheme, latency, eval.final_mean_spikes()));
    }

    // Rank: among schemes that reach the target, prefer fewest spikes.
    let best = results
        .iter()
        .filter_map(|(s, l, spikes)| l.map(|(t, spk)| (*s, t, *spikes, spk)))
        .min_by(|a, b| a.3.partial_cmp(&b.3).unwrap_or(std::cmp::Ordering::Equal));
    match best {
        Some((scheme, latency, _, spikes_at)) => println!(
            "\nbest scheme for this budget: {scheme} \
             (reaches DNN-1% in {latency} steps with {spikes_at:.0} spikes)"
        ),
        None => println!("\nno scheme reached the target within {steps} steps"),
    }
    Ok(())
}
