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

use bsnn_core::autotune::{autotune_batch, AutotuneConfig, BatchPolicy, BatchProbe};
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

/// Evaluates `net` over the dataset with the `threads × batch`
/// composition, at the lockstep width the model's own autotuning probe
/// picks — the default evaluation path of
/// every `exp_*` binary. Returns the result together with the measured
/// [`BatchPolicy`] so reports can cite the width the numbers were
/// produced at (bit-identical to the sequential path at any width, so
/// the choice affects only wall-clock). The probe itself is cached (see
/// [`autotune_cached`]), so repeated binaries skip the ~0.2 s
/// measurement.
///
/// # Panics
///
/// Panics if the autotuning probe or the evaluation itself fails —
/// experiment binaries treat both as fatal.
pub fn evaluate_autotuned(
    net: &SpikingNetwork,
    dataset: &ImageDataset,
    cfg: &EvalConfig,
) -> (EvalResult, BatchPolicy) {
    let probe_cfg = AutotuneConfig {
        phase_period: cfg.phase_period,
        ..AutotuneConfig::default()
    };
    let policy = autotune_cached(net, cfg.scheme, &probe_cfg);
    let eval = evaluate_dataset_batched(net, dataset, cfg, eval_threads(), policy.preferred_batch)
        .expect("dataset evaluation");
    (eval, policy)
}

/// 64-bit FNV-1a over `bytes`, continuing from `h` (seed the first call
/// with [`FNV_OFFSET`]). Hand-rolled so cache keys are stable across
/// toolchains, unlike `DefaultHasher`.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a64(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`autotune_batch`], cached under `target/bsnn_cache/` keyed by
/// (model content, coding scheme, [`AutotuneConfig`]): the probe is a
/// wall-clock measurement of ~0.2 s per (model, scheme), and the exp_*
/// binaries re-create bit-identical models from cached trained weights
/// on every run, so re-probing them is pure startup cost. Any change to
/// the model bytes or the probe configuration changes the key; a
/// corrupt or unparsable cache entry is ignored and re-measured. The
/// cache records measurements of *this machine* — `target/` is not
/// meant to travel.
///
/// # Panics
///
/// Panics if the underlying probe fails (experiment binaries treat that
/// as fatal).
pub fn autotune_cached(
    net: &SpikingNetwork,
    scheme: bsnn_core::coding::CodingScheme,
    cfg: &AutotuneConfig,
) -> BatchPolicy {
    autotune_cached_salted(net, scheme, cfg, &toolchain_salt())
}

/// The toolchain identity folded into every autotune cache key: the
/// rustc that compiled this binary plus its enabled target features
/// (both captured by `build.rs`), and the conv kernel instance this CPU
/// runs ([`bsnn_core::synapse::conv_instance`], chosen at run time). A
/// toolchain bump, a `-C target-cpu`/`target-feature` change or a
/// different instance alters the relative cost of scalar vs lockstep
/// kernels, so measurements made under the old ones must miss the
/// cache, not silently load.
fn toolchain_salt() -> String {
    format!(
        "{}|{}|{}",
        env!("BSNN_RUSTC_VERSION"),
        env!("BSNN_TARGET_FEATURES"),
        bsnn_core::synapse::conv_instance()
    )
}

/// The on-disk cache location for a (model, scheme, config, salt)
/// combination; `None` if the model cannot be serialized (then nothing
/// is cached).
fn autotune_cache_path(
    net: &SpikingNetwork,
    scheme: bsnn_core::coding::CodingScheme,
    cfg: &AutotuneConfig,
    salt: &str,
) -> Option<PathBuf> {
    let mut model_bytes = Vec::new();
    bsnn_core::snapshot::save_network(net, &mut model_bytes).ok()?;
    // "at7" salts the key with the cache-entry format generation: bump
    // it when the probe or the kernels change meaningfully, so stale
    // measurements from older binaries are not reused (at3 = int8 quant
    // kernels + quant_thresholds/quant_eligible lines + accuracy gate;
    // at4 = output-stationary conv kernel at widths 4, 8 and 16;
    // at5 = sparse kernel removed, no `thresholds` line;
    // at6 = AVX conv instance at widths 8 and 16, salt names the instance;
    // at7 = packed and int8 kernels removed, no crossover lines).
    let tag = format!(
        "at7|{salt}|{scheme}|{:?}|{}|{}|{}|{}|{}",
        cfg.widths, cfg.steps, cfg.reps, cfg.min_gain, cfg.seed, cfg.phase_period
    );
    let key = fnv1a64(tag.as_bytes(), fnv1a64(&model_bytes, FNV_OFFSET));
    Some(cache_dir().join(format!("autotune-{key:016x}.txt")))
}

fn autotune_cached_salted(
    net: &SpikingNetwork,
    scheme: bsnn_core::coding::CodingScheme,
    cfg: &AutotuneConfig,
    salt: &str,
) -> BatchPolicy {
    let path = autotune_cache_path(net, scheme, cfg, salt);
    if let Some(policy) = path.as_deref().and_then(read_autotune_cache) {
        return policy;
    }
    let policy = autotune_batch(net, scheme, cfg).expect("autotune probe");
    if let Some(path) = path {
        // Write-then-rename so a concurrent exp_* binary (or a kill
        // mid-write) can never observe a truncated entry — a prefix
        // like "probe 16 4125." still parses, with wrong values.
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        if fs::write(&tmp, render_autotune_cache(&policy)).is_ok() {
            let _ = fs::rename(&tmp, &path);
        }
    }
    policy
}

fn render_autotune_cache(policy: &BatchPolicy) -> String {
    let mut s = format!("preferred_batch {}\n", policy.preferred_batch);
    for p in &policy.probes {
        s.push_str(&format!("probe {} {}\n", p.width, p.lane_steps_per_sec));
    }
    s
}

fn read_autotune_cache(path: &std::path::Path) -> Option<BatchPolicy> {
    let text = fs::read_to_string(path).ok()?;
    let mut preferred_batch = None;
    let mut probes = Vec::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        match parts.next()? {
            "preferred_batch" => preferred_batch = Some(parts.next()?.parse().ok()?),
            "probe" => probes.push(BatchProbe {
                width: parts.next()?.parse().ok()?,
                lane_steps_per_sec: parts.next()?.parse().ok()?,
            }),
            _ => return None,
        }
    }
    Some(BatchPolicy {
        preferred_batch: preferred_batch?,
        probes,
        density_thresholds: Vec::new(),
        packed_thresholds: Vec::new(),
        quant_thresholds: Vec::new(),
        quant_eligible: Vec::new(),
    })
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

    #[test]
    fn autotune_cache_entry_round_trips() {
        let policy = BatchPolicy {
            preferred_batch: 8,
            probes: vec![
                BatchProbe {
                    width: 1,
                    lane_steps_per_sec: 1000.5,
                },
                BatchProbe {
                    width: 8,
                    lane_steps_per_sec: 4000.25,
                },
            ],
            density_thresholds: Vec::new(),
            packed_thresholds: Vec::new(),
            quant_thresholds: Vec::new(),
            quant_eligible: Vec::new(),
        };
        let path = cache_dir().join("test-autotune-roundtrip.txt");
        fs::write(&path, render_autotune_cache(&policy)).unwrap();
        assert_eq!(read_autotune_cache(&path), Some(policy));
        // Corrupt entries are rejected, not trusted.
        fs::write(&path, "preferred_batch eight\n").unwrap();
        assert_eq!(read_autotune_cache(&path), None);
        fs::write(&path, "unexpected_key 3\n").unwrap();
        assert_eq!(read_autotune_cache(&path), None);
        // Entries from before the sparse, packed and int8 kernels'
        // removal are not reused either.
        fs::write(&path, "preferred_batch 8\nthresholds 0.28\n").unwrap();
        assert_eq!(read_autotune_cache(&path), None);
        fs::write(&path, "preferred_batch 8\npacked_thresholds 0.0625\n").unwrap();
        assert_eq!(read_autotune_cache(&path), None);
        fs::write(&path, "preferred_batch 8\nquant_eligible 1,0\n").unwrap();
        assert_eq!(read_autotune_cache(&path), None);
        let _ = fs::remove_file(&path);
        assert_eq!(read_autotune_cache(&path), None, "missing file");
    }

    #[test]
    fn autotune_cached_probes_once_then_hits() {
        use bsnn_core::coding::{CodingScheme, HiddenCoding, InputCoding};
        use bsnn_core::layer::{SpikingLayer, ThresholdPolicy};
        use bsnn_core::synapse::Synapse;
        let dense = |n: usize| Synapse::Dense {
            weight: bsnn_tensor::Tensor::from_vec(vec![0.3; n * n], &[n, n]).unwrap(),
        };
        let hidden =
            SpikingLayer::new(dense(4), None, ThresholdPolicy::Fixed { vth: 0.5 }).unwrap();
        let net = SpikingNetwork::new(4, vec![hidden], dense(4), None).unwrap();
        let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
        // A config no other test uses, so the key (and file) is ours.
        let cfg = AutotuneConfig {
            steps: 3,
            reps: 1,
            seed: 0xCAC4E,
            ..AutotuneConfig::default()
        };
        let first = autotune_cached(&net, scheme, &cfg);
        let second = autotune_cached(&net, scheme, &cfg);
        // The second call must be a byte-exact cache hit — identical
        // probes (wall-clock numbers would differ if re-measured).
        assert_eq!(first, second);
        // A different config misses the cache.
        let other = autotune_cached(
            &net,
            scheme,
            &AutotuneConfig {
                steps: 4,
                ..cfg.clone()
            },
        );
        assert_eq!(other.probes.len(), first.probes.len());
    }

    #[test]
    fn toolchain_salt_change_misses_the_cache() {
        use bsnn_core::coding::{CodingScheme, HiddenCoding, InputCoding};
        use bsnn_core::layer::{SpikingLayer, ThresholdPolicy};
        use bsnn_core::synapse::Synapse;
        let dense = |n: usize| Synapse::Dense {
            weight: bsnn_tensor::Tensor::from_vec(vec![0.3; n * n], &[n, n]).unwrap(),
        };
        let hidden =
            SpikingLayer::new(dense(4), None, ThresholdPolicy::Fixed { vth: 0.5 }).unwrap();
        let net = SpikingNetwork::new(4, vec![hidden], dense(4), None).unwrap();
        let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
        let cfg = AutotuneConfig {
            steps: 3,
            reps: 1,
            seed: 0x5A17ED,
            ..AutotuneConfig::default()
        };

        // The regression this guards: before the salt, a rustc upgrade
        // (or a -C target-cpu change) reused policies calibrated under
        // the old codegen. Different salts must map to different cache
        // files entirely.
        let old = autotune_cache_path(&net, scheme, &cfg, "rustc 1.0.0 (old)|").unwrap();
        let new = autotune_cache_path(&net, scheme, &cfg, "rustc 2.0.0 (new)|+avx2").unwrap();
        assert_ne!(old, new, "salt must be part of the key");
        // And the live key uses the compiled-in toolchain identity and
        // the conv instance chosen at run time.
        let live = autotune_cache_path(&net, scheme, &cfg, &toolchain_salt()).unwrap();
        assert_ne!(live, old);
        let instance = bsnn_core::synapse::conv_instance();
        assert!(toolchain_salt().ends_with(&format!("|{instance}")));

        // End to end: populate under one salt, then probe under another —
        // the second salt must re-measure (its file appears), never read
        // the first salt's entry.
        let _ = fs::remove_file(&old);
        let _ = fs::remove_file(&new);
        autotune_cached_salted(&net, scheme, &cfg, "rustc 1.0.0 (old)|");
        assert!(old.exists(), "first probe populates its entry");
        assert!(!new.exists());
        autotune_cached_salted(&net, scheme, &cfg, "rustc 2.0.0 (new)|+avx2");
        assert!(new.exists(), "changed salt re-probes into a fresh entry");
        let _ = fs::remove_file(&old);
        let _ = fs::remove_file(&new);
    }
}
