//! The three model recipes, their set-up, and the seeded input pools.
//!
//! Each recipe is the one a shipped binary uses: the `bsnn_server
//! --demo-model` MLP, the `exp_bench_record` vgg_tiny, and the
//! `exp_table1` quick-profile VGG-small. Every model is saved with
//! `save_network` (so it carries no calibration metadata) and installed
//! with `ModelRegistry::install_snapshot`, which is how a snapshot
//! reaches a server by default.

use crate::trace::SpanLog;
use bsnn_core::coding::{CodingScheme, HiddenCoding, InputCoding};
use bsnn_core::convert::{convert, ConversionConfig};
use bsnn_core::snapshot::save_network;
use bsnn_data::{ImageDataset, SynthSpec, SyntheticTask};
use bsnn_dnn::models;
use bsnn_dnn::train::{TrainConfig, Trainer};
use bsnn_serve::ModelRegistry;
use std::sync::Arc;
use std::time::Instant;

/// Phase period every workload serves with (the library default).
pub const PHASE_PERIOD: u32 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recipe {
    /// MLP 144-32-10, phase-burst, on synthetic digits.
    DemoMlp,
    /// vgg_tiny 1×12×12, phase-burst, on synthetic digits.
    VggTiny,
    /// VGG-small on the CIFAR-10 stand-in, rate-burst at vth 0.125.
    VggSmallRate,
}

impl Recipe {
    pub fn model_name(self) -> &'static str {
        match self {
            Recipe::DemoMlp => "digits",
            Recipe::VggTiny => "vgg_tiny",
            Recipe::VggSmallRate => "vgg_small",
        }
    }

    pub fn scheme(self) -> CodingScheme {
        match self {
            Recipe::DemoMlp | Recipe::VggTiny => CodingScheme::recommended(),
            Recipe::VggSmallRate => CodingScheme::new(InputCoding::Rate, HiddenCoding::Burst),
        }
    }

    /// `(train per class, test per class of the split the pool is drawn
    /// from, test per class the training report uses)`.
    fn counts(self) -> (usize, usize, usize) {
        match self {
            // The serve recipes train on 60/class; their pools come from
            // a 2000-image test split generated with the task's own seed
            // (the split's first 12 or 8 per class are the recipe's own).
            Recipe::DemoMlp => (60, 200, 12),
            Recipe::VggTiny => (60, 200, 8),
            // exp_table1's quick profile: 60/class train, 12/class test.
            Recipe::VggSmallRate => (60, 12, 12),
        }
    }

    fn spec(self) -> SynthSpec {
        let (train, test, _) = self.counts();
        match self {
            Recipe::DemoMlp | Recipe::VggTiny => SynthSpec::digits().with_counts(train, test),
            Recipe::VggSmallRate => {
                SynthSpec::for_task(SyntheticTask::Cifar10).with_counts(train, test)
            }
        }
    }

    fn train_config(self) -> TrainConfig {
        let (epochs, batch_size, lr) = match self {
            Recipe::DemoMlp => (6, 30, 2e-3),
            Recipe::VggTiny => (4, 30, 2e-3),
            Recipe::VggSmallRate => (6, 32, 1.5e-3),
        };
        TrainConfig {
            epochs,
            batch_size,
            lr,
            ..TrainConfig::default()
        }
    }

    fn build(self) -> bsnn_dnn::Sequential {
        match self {
            Recipe::DemoMlp => models::mlp(144, &[32], 10, 5),
            Recipe::VggTiny => models::vgg_tiny(1, 12, 12, 10, 0),
            Recipe::VggSmallRate => models::vgg_small(3, 16, 16, 10, 11),
        }
        .expect("recipe geometry is valid")
    }

    fn conversion(self) -> (ConversionConfig, usize) {
        match self {
            Recipe::DemoMlp | Recipe::VggTiny => (ConversionConfig::new(self.scheme()), 40),
            Recipe::VggSmallRate => (ConversionConfig::new(self.scheme()).with_vth(0.125), 64),
        }
    }
}

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub data_s: f64,
    pub train_s: f64,
    pub convert_s: f64,
    pub save_s: f64,
    pub install_s: f64,
    pub start_s: f64,
    pub warmup_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.data_s
            + self.train_s
            + self.convert_s
            + self.save_s
            + self.install_s
            + self.start_s
            + self.warmup_s
    }
}

/// A trained, converted, snapshotted and installed model.
#[derive(Debug)]
pub struct Installed {
    pub recipe: Recipe,
    pub registry: Arc<ModelRegistry>,
    pub snapshot: Vec<u8>,
    pub test: ImageDataset,
}

impl Installed {
    pub fn entry(&self) -> Arc<bsnn_serve::ModelEntry> {
        self.registry
            .get(self.recipe.model_name())
            .expect("the model was installed")
    }

    /// Installs the same snapshot into a fresh registry (a second
    /// runtime for the traced run).
    pub fn reinstall(&self) -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new());
        registry
            .install_snapshot(
                self.recipe.model_name(),
                &self.snapshot[..],
                self.recipe.scheme(),
                PHASE_PERIOD,
            )
            .expect("the snapshot was written by save_network");
        registry
    }
}

/// Data → training → conversion → snapshot → registry, timing each step
/// into `times` and, when tracing, into spans under `parent`.
pub fn install(
    recipe: Recipe,
    times: &mut SetupTimes,
    spans: &mut SpanLog,
    parent: u64,
) -> Installed {
    let t = Instant::now();
    let (train, test) = spans.time("data.generate", parent, || recipe.spec().generate());
    times.data_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut dnn = recipe.build();
    let report_split = test.take_per_class(recipe.counts().2);
    spans.time("dnn.train", parent, || {
        Trainer::new(recipe.train_config())
            .fit(&mut dnn, &train, &report_split)
            .expect("training the recipe model")
    });
    times.train_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (conversion, norm_images) = recipe.conversion();
    let norm = train.batch(&(0..norm_images).collect::<Vec<_>>()).0;
    let snn = spans.time("convert", parent, || {
        convert(&mut dnn, &norm, &conversion).expect("converting the recipe model")
    });
    times.convert_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut snapshot = Vec::new();
    spans.time("snapshot.save", parent, || {
        save_network(&snn, &mut snapshot).expect("writing to memory")
    });
    times.save_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let registry = Arc::new(ModelRegistry::new());
    spans.time("registry.install", parent, || {
        registry
            .install_snapshot(
                recipe.model_name(),
                &snapshot[..],
                recipe.scheme(),
                PHASE_PERIOD,
            )
            .expect("the snapshot was just written")
    });
    times.install_s = t.elapsed().as_secs_f64();

    Installed {
        recipe,
        registry,
        snapshot,
        test,
    }
}

/// splitmix64: a tiny, well-mixed generator for seeded input order.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The first `n` indices of a seeded permutation of `0..len`.
pub fn seeded_pick(len: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed;
    for i in (1..len).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order.truncate(n.min(len));
    order
}

/// The seed's pick of `n` test images, in the seed's order, with labels.
pub fn pool(test: &ImageDataset, n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
    seeded_pick(test.len(), n, seed)
        .into_iter()
        .map(|i| (test.image(i).to_vec(), test.label(i)))
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_pick_is_a_repeatable_permutation_prefix() {
        let a = seeded_pick(100, 40, 7);
        assert_eq!(a, seeded_pick(100, 40, 7));
        assert_ne!(a, seeded_pick(100, 40, 8));
        let mut all = seeded_pick(100, 100, 7);
        assert_eq!(&all[..40], &a[..]);
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }
}
