//! Criterion bench behind Figs. 3–4: accuracy-curve evaluation with dense
//! checkpoints (the extra cost of sampling predictions at every
//! checkpoint versus only at the end), and the Fig. 5 firing-statistics
//! pass.

use bsnn_analysis::population_firing;
use bsnn_core::coding::CodingScheme;
use bsnn_core::convert::{convert, ConversionConfig};
use bsnn_core::simulator::{evaluate_dataset_batched, record_spike_trains, EvalConfig};
use bsnn_data::SynthSpec;
use bsnn_dnn::models;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_curves(c: &mut Criterion) {
    let (train, test) = SynthSpec::digits().with_counts(8, 2).generate();
    let mut dnn = models::vgg_tiny(1, 12, 12, 10, 3).expect("model");
    let (norm, _) = train.batch(&[0, 1, 2, 3]);
    let scheme = CodingScheme::recommended();
    let cfg = ConversionConfig::new(scheme).with_vth(0.125);
    let mut snn = convert(&mut dnn, &norm, &cfg).expect("conversion");

    // Width 4: the 5 images chunk as [4, 1], both fixed lane widths, so
    // the bench tracks the fixed-width kernels production runs.
    let mut group = c.benchmark_group("fig4_accuracy_curve_batch4_5imgs_64steps");
    group.sample_size(10);
    for (label, every) in [
        ("checkpoint_every_4", 4usize),
        ("checkpoint_final_only", 64),
    ] {
        let eval_cfg = EvalConfig::new(scheme, 64)
            .with_checkpoint_every(every)
            .with_max_images(5);
        group.bench_function(label, |b| {
            b.iter(|| {
                let ev = evaluate_dataset_batched(&snn, black_box(&test), &eval_cfg, 1, 4)
                    .expect("eval");
                black_box(ev.final_accuracy())
            })
        });
    }
    group.finish();

    c.bench_function("fig5_population_firing_128steps", |b| {
        let image = test.image(0).to_vec();
        b.iter(|| {
            let trains = record_spike_trains(&mut snn, black_box(&image), scheme, 128, 0.1, 0)
                .expect("recording");
            black_box(population_firing(&trains).mean_regularity)
        })
    });
}

criterion_group!(benches, bench_curves);
criterion_main!(benches);
