//! Criterion bench behind Table 1: single-image SNN inference cost for
//! each of the nine coding schemes on a small converted CNN.
//!
//! The wall-clock cost per scheme is the event-driven workload — it
//! scales with spike traffic, so burst/phase hidden coding under real
//! input is visibly more expensive per step than sparse schemes, which is
//! the paper's energy argument in microcosm.
//!
//! `infer_image` is the cache-free scalar reference: it recomputes the
//! input stage every step, even under real or phase input coding whose
//! drive repeats. These timings are the reference's cost, not the
//! lockstep engine's (see the `batched_sim` bench).

use bsnn_core::coding::CodingScheme;
use bsnn_core::convert::{convert, ConversionConfig};
use bsnn_core::simulator::{infer_image, EvalConfig};
use bsnn_data::SynthSpec;
use bsnn_dnn::models;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_schemes(c: &mut Criterion) {
    let (train, test) = SynthSpec::digits().with_counts(8, 2).generate();
    let mut dnn = models::vgg_tiny(1, 12, 12, 10, 3).expect("model");
    let (norm, _) = train.batch(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let image = test.image(0).to_vec();

    let mut group = c.benchmark_group("table1_infer_image_32steps");
    group.sample_size(20);
    for scheme in CodingScheme::all() {
        let cfg = ConversionConfig::new(scheme).with_vth(0.125);
        let mut snn = convert(&mut dnn, &norm, &cfg).expect("conversion");
        let eval_cfg = EvalConfig::new(scheme, 32);
        group.bench_function(scheme.to_string(), |b| {
            b.iter(|| {
                let r = infer_image(&mut snn, black_box(&image), &eval_cfg).expect("inference");
                black_box(r.cum_spikes)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schemes);
criterion_main!(benches);
