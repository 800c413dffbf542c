//! Energy estimation: project a converted SNN's workload onto
//! TrueNorth-like and SpiNNaker-like neuromorphic cost models — the
//! paper's motivating use case (energy-efficient inference in mobile
//! environments, Table 2's right-hand columns).
//!
//! Run with: `cargo run --release --example energy_estimation`

use burst_snn::analysis::{EnergyModel, WorkloadMetrics};
use burst_snn::core::coding::{CodingScheme, HiddenCoding, InputCoding};
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
    let norm_batch = train.batch(&(0..32).collect::<Vec<_>>()).0;
    let target = report.test_accuracy - 0.01;
    let steps = 160;

    // Measure workload (spikes, density, latency-to-target) per method.
    let methods = [
        (
            "real-rate (reference)",
            CodingScheme::new(InputCoding::Real, HiddenCoding::Rate),
        ),
        (
            "phase-phase (Kim'18)",
            CodingScheme::new(InputCoding::Phase, HiddenCoding::Phase),
        ),
        (
            "phase-burst (ours)",
            CodingScheme::new(InputCoding::Phase, HiddenCoding::Burst),
        ),
    ];
    let mut workloads = Vec::new();
    for (label, scheme) in methods {
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
        let (latency, spikes) = eval
            .latency_to(target)
            .unwrap_or((steps, eval.final_mean_spikes()));
        workloads.push((
            label,
            WorkloadMetrics {
                spikes_per_image: spikes,
                spiking_density: spikes / (snn.num_neurons() as f64 * latency as f64),
                latency,
            },
        ));
    }

    let reference = workloads[0].1;
    println!(
        "\n{:<24} {:>10} {:>8} {:>9} {:>9} {:>10}",
        "method", "spikes", "latency", "density", "E(TN)", "E(SpiNN)"
    );
    for (label, w) in &workloads {
        let tn = EnergyModel::truenorth().normalized(w, &reference);
        let sp = EnergyModel::spinnaker().normalized(w, &reference);
        println!(
            "{:<24} {:>10.0} {:>8} {:>9.4} {:>9.3} {:>10.3}",
            label,
            w.spikes_per_image,
            w.latency,
            w.spiking_density,
            tn.total(),
            sp.total()
        );
    }
    println!(
        "\n(normalized energy relative to the real-rate reference; \
         breakdown: computation ∝ spikes, routing ∝ density, static ∝ latency)"
    );
    Ok(())
}
