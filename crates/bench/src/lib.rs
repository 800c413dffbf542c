//! # bsnn-bench
//!
//! Experiment harness regenerating every table and figure of Park et al.
//! (DAC 2019). Each `exp_*` binary prints the rows/series of one paper
//! artefact; the Criterion benches measure the simulator's runtime cost
//! per coding scheme.
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `exp_table1` | Table 1 — 9 input×hidden coding combinations |
//! | `exp_table2` | Table 2 — cross-method comparison incl. energy |
//! | `exp_fig1`   | Fig. 1 — ISI histograms per coding |
//! | `exp_fig2`   | Fig. 2 — burst fraction & composition vs `v_th` |
//! | `exp_fig3`   | Fig. 3 — latency & spikes to target accuracy |
//! | `exp_fig4`   | Fig. 4 — accuracy-vs-time-step inference curves |
//! | `exp_fig5`   | Fig. 5 — firing rate vs regularity scatter |
//! | `exp_ablation` | DESIGN.md ablations (β sweep, normalization, phase period) |
//!
//! Set `BSNN_PROFILE=paper` for the larger (slower) configuration;
//! the default `quick` profile finishes each binary in well under a
//! minute on a laptop CPU.

use bsnn_core::simulator::{evaluate_dataset_batched, EvalConfig, EvalResult};
use bsnn_core::SpikingNetwork;
use bsnn_data::{ImageDataset, SynthSpec, SyntheticTask};
use bsnn_dnn::models;
use bsnn_dnn::train::{evaluate, TrainConfig, Trainer};
use bsnn_dnn::Sequential;
use bsnn_tensor::Tensor;
use std::fs;
use std::io::{Read, Write};
use std::path::PathBuf;

/// Worker threads for dataset evaluation: all available cores.
pub fn eval_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Evaluates `net` over the dataset on [`eval_threads`] threads, each
/// stepping lockstep batches of 16 images — the default evaluation path
/// of every `exp_*` binary. Results are bit-identical to the scalar
/// reference at any width; the width sets only the wall time. 16 is the
/// width the examples, the `table2` bench and the benchmark's eval
/// workload use: on a 2-vCPU x86-64 host widths 8 and 16 ran level on
/// both the MLP 144-32-10 and `vgg_tiny`, and narrower widths ran
/// slower.
///
/// # Panics
///
/// Panics if the evaluation fails — experiment binaries treat that as
/// fatal.
pub fn evaluate_lockstep(
    net: &SpikingNetwork,
    dataset: &ImageDataset,
    cfg: &EvalConfig,
) -> EvalResult {
    evaluate_dataset_batched(net, dataset, cfg, eval_threads(), 16).expect("dataset evaluation")
}

/// Experiment scale: dataset sizes, training epochs, evaluation breadth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Profile identifier (used in cache keys and report headers).
    pub name: &'static str,
    /// Training images generated per class.
    pub train_per_class: usize,
    /// Test images generated per class.
    pub test_per_class: usize,
    /// DNN training epochs.
    pub epochs: usize,
    /// Number of test images evaluated per SNN configuration.
    pub eval_images: usize,
    /// Simulation horizon in time steps.
    pub steps: usize,
}

impl Profile {
    /// Fast profile for CI and iteration.
    pub fn quick() -> Self {
        Profile {
            name: "quick",
            train_per_class: 60,
            test_per_class: 12,
            epochs: 6,
            eval_images: 60,
            steps: 192,
        }
    }

    /// Larger profile approaching the paper's evaluation breadth
    /// (still scaled to the synthetic datasets — see DESIGN.md).
    pub fn paper() -> Self {
        Profile {
            name: "paper",
            train_per_class: 150,
            test_per_class: 30,
            epochs: 10,
            eval_images: 120,
            steps: 448,
        }
    }

    /// Reads `BSNN_PROFILE` (`quick` | `paper`), defaulting to quick.
    pub fn from_env() -> Self {
        match std::env::var("BSNN_PROFILE").as_deref() {
            Ok("paper") => Profile::paper(),
            _ => Profile::quick(),
        }
    }
}

/// A prepared experiment task: datasets plus a trained source DNN.
#[derive(Debug)]
pub struct TaskSetup {
    /// The synthetic task.
    pub task: SyntheticTask,
    /// Training split.
    pub train: ImageDataset,
    /// Test split.
    pub test: ImageDataset,
    /// Trained DNN (the conversion source).
    pub dnn: Sequential,
    /// The DNN's test accuracy — the SNN's target.
    pub dnn_accuracy: f64,
}

impl TaskSetup {
    /// A normalization batch of up to `n` training images.
    pub fn norm_batch(&self, n: usize) -> Tensor {
        let count = n.min(self.train.len());
        let idx: Vec<usize> = (0..count).collect();
        self.train.batch(&idx).0
    }
}

fn cache_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bsnn_cache");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Serializes a model's parameters (raw little-endian `f32`s).
///
/// # Errors
///
/// Returns I/O errors from writing the file.
pub fn save_params(model: &mut Sequential, path: &std::path::Path) -> std::io::Result<()> {
    let mut buf: Vec<u8> = Vec::new();
    let params = model.params_mut();
    buf.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        let v = p.value.as_slice();
        buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
        for x in v {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }
    fs::File::create(path)?.write_all(&buf)
}

/// Restores parameters saved by [`save_params`] into a structurally
/// identical model. Returns `false` (without modifying the model) if the
/// file is missing or does not match the model's parameter layout.
///
/// # Errors
///
/// Returns I/O errors other than "not found".
pub fn load_params(model: &mut Sequential, path: &std::path::Path) -> std::io::Result<bool> {
    let mut bytes = Vec::new();
    match fs::File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    }
    let mut cursor = 0usize;
    let read_u32 = |bytes: &[u8], cursor: &mut usize| -> Option<u32> {
        let v = bytes.get(*cursor..*cursor + 4)?;
        *cursor += 4;
        Some(u32::from_le_bytes(v.try_into().ok()?))
    };
    let Some(count) = read_u32(&bytes, &mut cursor) else {
        return Ok(false);
    };
    let mut params = model.params_mut();
    if count as usize != params.len() {
        return Ok(false);
    }
    let mut staged: Vec<Vec<f32>> = Vec::with_capacity(params.len());
    for p in params.iter() {
        let Some(len) = read_u32(&bytes, &mut cursor) else {
            return Ok(false);
        };
        if len as usize != p.value.len() {
            return Ok(false);
        }
        let mut vals = Vec::with_capacity(len as usize);
        for _ in 0..len {
            let Some(chunk) = bytes.get(cursor..cursor + 4) else {
                return Ok(false);
            };
            cursor += 4;
            vals.push(f32::from_le_bytes(chunk.try_into().expect("4 bytes")));
        }
        staged.push(vals);
    }
    for (p, vals) in params.iter_mut().zip(staged) {
        p.value.as_mut_slice().copy_from_slice(&vals);
    }
    Ok(true)
}

/// Builds the task's reference DNN architecture (untrained).
///
/// # Panics
///
/// Panics only on inconsistent internal geometry (programming error).
pub fn build_model(task: SyntheticTask, spec: &SynthSpec) -> Sequential {
    match task {
        SyntheticTask::Digits => {
            models::cnn_digits(spec.channels, spec.height, spec.width, spec.num_classes, 11)
                .expect("digits geometry divisible by 4")
        }
        SyntheticTask::Cifar10 | SyntheticTask::Cifar100 => {
            models::vgg_small(spec.channels, spec.height, spec.width, spec.num_classes, 11)
                .expect("cifar geometry divisible by 4")
        }
    }
}

/// Generates the datasets and a trained DNN for `task`, caching trained
/// weights under `target/bsnn_cache/` so repeated experiment binaries
/// skip training.
///
/// # Panics
///
/// Panics if training fails (tensor shape errors — programming bugs, not
/// runtime conditions).
pub fn prepare_task(task: SyntheticTask, profile: &Profile) -> TaskSetup {
    let spec =
        SynthSpec::for_task(task).with_counts(profile.train_per_class, profile.test_per_class);
    let (train, test) = spec.generate();
    let mut dnn = build_model(task, &spec);
    let cache = cache_dir().join(format!("{}-{}.bin", task.name(), profile.name));
    let loaded = load_params(&mut dnn, &cache).unwrap_or(false);
    if !loaded {
        eprintln!(
            "[bsnn-bench] training {} DNN ({} epochs, {} images)…",
            task.name(),
            profile.epochs,
            train.len()
        );
        let cfg = TrainConfig {
            epochs: profile.epochs,
            batch_size: 32,
            lr: 1.5e-3,
            ..TrainConfig::default()
        };
        Trainer::new(cfg)
            .fit(&mut dnn, &train, &test)
            .expect("training the reference DNN");
        let _ = save_params(&mut dnn, &cache);
    }
    let dnn_accuracy = evaluate(&mut dnn, &test, 64).expect("evaluating the reference DNN");
    TaskSetup {
        task,
        train,
        test,
        dnn,
        dnn_accuracy,
    }
}

/// Prints a fixed-width table: a header row, a rule, then rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("{}", joined.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ() {
        assert!(Profile::paper().steps > Profile::quick().steps);
        assert_eq!(Profile::from_env().name, "quick");
    }

    #[test]
    fn save_load_round_trip() {
        let mut a = models::mlp(8, &[4], 3, 1).unwrap();
        let mut b = models::mlp(8, &[4], 3, 2).unwrap();
        let path = cache_dir().join("test-roundtrip.bin");
        save_params(&mut a, &path).unwrap();
        assert!(load_params(&mut b, &path).unwrap());
        let x = Tensor::ones(&[1, 8]);
        assert_eq!(
            a.forward(&x, false).unwrap().as_slice(),
            b.forward(&x, false).unwrap().as_slice()
        );
        let _ = fs::remove_file(path);
    }

    #[test]
    fn load_rejects_layout_mismatch() {
        let mut a = models::mlp(8, &[4], 3, 1).unwrap();
        let mut c = models::mlp(8, &[5], 3, 1).unwrap();
        let path = cache_dir().join("test-mismatch.bin");
        save_params(&mut a, &path).unwrap();
        assert!(!load_params(&mut c, &path).unwrap());
        let _ = fs::remove_file(path);
    }

    #[test]
    fn load_missing_file_is_false() {
        let mut a = models::mlp(4, &[], 2, 0).unwrap();
        let missing = cache_dir().join("definitely-not-there.bin");
        assert!(!load_params(&mut a, &missing).unwrap());
    }

    #[test]
    fn build_model_matches_task() {
        let spec = SynthSpec::digits();
        let m = build_model(SyntheticTask::Digits, &spec);
        assert!(m.summary().starts_with("conv2d"));
    }
}
