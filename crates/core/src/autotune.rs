//! Per-model lockstep batch-width and kernel-crossover autotuning.
//!
//! The lockstep engine's win is model-dependent: conv/pool stages are
//! weight-reuse-bound and gain 2–3× at widths 8–16, while small dense
//! stages under sparse spike traffic are event-skip-bound and used to
//! *lose* to the scalar engine. BENCH_core.json records both regimes on
//! the same machine. Two knobs therefore cannot be hardcoded and are
//! measured per model on a short synthetic warm-up:
//!
//! 1. **Kernel crossovers** — per stage, the spike density below which
//!    the bit-plane packed kernel, and on dense stages the int8 kernel,
//!    beats the dense lockstep kernel (micro-benchmarked
//!    strategy-vs-strategy on the stage's own synapse over a density
//!    grid; see [`crate::batch::DispatchPolicy`]). Packed crossovers are
//!    then re-validated on the whole engine, and int8 is admitted per
//!    stage only past an accuracy gate.
//! 2. **Preferred batch width** — probed with the packed crossovers
//!    already installed, so the width decision reflects the
//!    density-dispatching engine that will actually run.
//!
//! Both travel with the model (snapshot metadata, registry entry) so
//! every consumer — the batched dataset evaluator, the serving
//! workers — runs each model at its own sweet spot.

use crate::batch::{BatchedNetwork, BatchedStepwiseInference, DispatchMode, DispatchPolicy};
use crate::coding::CodingScheme;
use crate::network::SpikingNetwork;
use crate::simulator::EvalConfig;
use crate::synapse::{KernelScratch, Synapse};
use crate::SnnError;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::time::Instant;

/// The widths probed by default: scalar, one SSE quad, and the two
/// micro-batch sizes the serving runtime commonly pops.
pub const DEFAULT_WIDTHS: [usize; 4] = [1, 4, 8, 16];

/// Knobs of one autotuning run.
#[derive(Debug, Clone)]
pub struct AutotuneConfig {
    /// Candidate lockstep widths, each probed independently.
    pub widths: Vec<usize>,
    /// Simulated time steps per probe run.
    pub steps: usize,
    /// Wall-clock repetitions per width (best-of, to shed scheduler
    /// noise).
    pub reps: usize,
    /// Relative throughput gain a wider width must show over the best
    /// narrower candidate to be preferred — hysteresis toward small
    /// widths, which cost less memory and queue latency. The default
    /// (15%) is sized to absorb scheduler noise on busy hosts: widths
    /// that only look a few percent apart are really tied, and a tie
    /// should resolve to the narrowest width, while genuine lockstep
    /// wins (conv models measure 2–3×) clear it easily.
    pub min_gain: f64,
    /// Seed of the synthetic warm-up images.
    pub seed: u64,
    /// Phase period `k` the model is served with. The period sets the
    /// input spike density under phase coding, which shifts the
    /// event-skip break-even width — probe with the value the model
    /// will actually run at.
    pub phase_period: u32,
    /// Whether to calibrate each stage's packed and int8 crossovers and
    /// run the int8 accuracy gate (on by default). When off, the engine
    /// falls back to [`crate::batch::DEFAULT_PACKED_CROSSOVER`]
    /// everywhere, no stage may quantize, and the width probe runs
    /// with those defaults.
    pub calibrate_density: bool,
    /// Wall-clock repetitions per (stage, density, strategy)
    /// measurement (best-of, to shed scheduler noise).
    pub density_reps: usize,
    /// Maximum absolute accuracy delta (as a prediction-agreement
    /// fraction against the f32 engine on the calibration set) a stage
    /// may introduce and still be eligible for quantized dispatch. The
    /// default, 0.5%, matches the paper-reproduction tolerance the
    /// benchmarks gate on. `0.0` demands bit-equal predictions.
    pub quant_delta: f64,
    /// Synthetic calibration images the accuracy gate evaluates per
    /// candidate stage (and once more for the combined eligible set).
    pub quant_gate_images: usize,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        AutotuneConfig {
            widths: DEFAULT_WIDTHS.to_vec(),
            steps: 64,
            reps: 4,
            min_gain: 0.15,
            seed: 0x5eed,
            phase_period: 8,
            calibrate_density: true,
            density_reps: 3,
            quant_delta: 0.005,
            quant_gate_images: 48,
        }
    }
}

impl AutotuneConfig {
    fn validate(&self) -> Result<(), SnnError> {
        if self.widths.is_empty() || self.widths.contains(&0) {
            return Err(SnnError::InvalidConfig(
                "autotune widths must be nonempty and nonzero".into(),
            ));
        }
        if self.steps == 0 || self.reps == 0 {
            return Err(SnnError::InvalidConfig(
                "autotune steps and reps must be nonzero".into(),
            ));
        }
        if !self.min_gain.is_finite() || self.min_gain < 0.0 {
            return Err(SnnError::InvalidConfig(format!(
                "autotune min_gain {} must be finite and nonnegative",
                self.min_gain
            )));
        }
        if self.density_reps == 0 {
            return Err(SnnError::InvalidConfig(
                "autotune density_reps must be nonzero".into(),
            ));
        }
        if !self.quant_delta.is_finite() || self.quant_delta < 0.0 {
            return Err(SnnError::InvalidConfig(format!(
                "autotune quant_delta {} must be finite and nonnegative",
                self.quant_delta
            )));
        }
        if self.quant_gate_images == 0 {
            return Err(SnnError::InvalidConfig(
                "autotune quant_gate_images must be nonzero".into(),
            ));
        }
        Ok(())
    }
}

/// One width's measured throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchProbe {
    /// Lockstep width probed.
    pub width: usize,
    /// Lane-steps per second (images × time steps per wall-clock
    /// second) at that width.
    pub lane_steps_per_sec: f64,
}

/// The measured batch policy of one model: which lockstep width to run
/// it at, plus the evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPolicy {
    /// The width consumers should run this model at.
    pub preferred_batch: usize,
    /// All probed widths, in probe order.
    pub probes: Vec<BatchProbe>,
    /// Always empty: the removed sparse kernel's crossovers, kept so
    /// existing readers such as the `perfbench` harness still build.
    pub density_thresholds: Vec<f32>,
    /// Calibrated packed/dense crossovers, one per hidden stage plus a
    /// final entry for the output synapse — install into the engine
    /// via [`crate::batch::DispatchPolicy`]. Below a stage's entry the
    /// bit-plane packed kernel runs instead of the dense one. Empty
    /// when calibration was disabled
    /// ([`crate::batch::DEFAULT_PACKED_CROSSOVER`] applies).
    pub packed_thresholds: Vec<f32>,
    /// Calibrated quantized/dense crossovers, same layout: below a
    /// stage's entry the int8 kernel preempts the packed replay —
    /// consulted only where the stage is also eligible. `0.0` for
    /// conv/pool stages (no weight matrix to quantize) and stages
    /// where int8 never won the grid. Empty when calibration was
    /// disabled.
    pub quant_thresholds: Vec<f32>,
    /// Per-stage accuracy-gate verdicts: `true` only where end-to-end
    /// prediction agreement with the f32 engine on the calibration set
    /// stayed within [`AutotuneConfig::quant_delta`] — per stage *and*
    /// with every eligible stage quantizing at once. Empty when
    /// calibration was disabled (no stage is then eligible).
    pub quant_eligible: Vec<bool>,
}

impl BatchPolicy {
    /// The measured probe for `width`, if it was a candidate.
    pub fn probe_for(&self, width: usize) -> Option<BatchProbe> {
        self.probes.iter().copied().find(|p| p.width == width)
    }

    /// Throughput of the preferred width relative to width 1 (1.0 when
    /// width 1 was not probed).
    pub fn speedup_vs_scalar(&self) -> f64 {
        match (self.probe_for(1), self.probe_for(self.preferred_batch)) {
            (Some(base), Some(best)) if base.lane_steps_per_sec > 0.0 => {
                best.lane_steps_per_sec / base.lane_steps_per_sec
            }
            _ => 1.0,
        }
    }
}

/// Deterministic synthetic warm-up images: intensities in `[0, 1]` with
/// ~40% exact zeros, approximating the mixed sparsity of real spike
/// traffic (all-dense or all-zero probes would flatter the wrong
/// widths).
fn warmup_images(rng: &mut StdRng, n: usize, len: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| {
            (0..len)
                .map(|_| {
                    let v: f32 = rng.gen_range(0.0..1.0);
                    if v < 0.4 {
                        0.0
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect()
}

/// The densities probed when calibrating a stage's crossovers. A
/// crossover is reported as the midpoint between the last density
/// where the challenger won and the first where dense won.
const DENSITY_GRID: [f32; 7] = [0.03125, 0.0625, 0.125, 0.25, 0.5, 0.75, 1.0];

/// Relative speed advantage the packed and quantized challengers must
/// show over dense to win a grid point — hysteresis toward dense, whose
/// worst case is bounded while a wrongly packed stage forfeits its
/// weight reuse. It is wide because these strategies carry engine-side
/// costs the stage microbench cannot see: selecting either for any
/// stage k ≥ 1 makes every *upstream* fire pass pay a plane build.
/// BENCH v5 showed a 15% margin letting a near-tie stage-0 packed pick
/// drag MLP auto throughput below forced-dense; 25% keeps near-ties
/// dense.
const PACKED_WIN_MARGIN: f64 = 1.25;

/// Slack for the engine-level packed validation pass: a stage's packed
/// crossover survives only if enabling it keeps whole-engine wall
/// clock within this factor of the plane-free baseline. The kernel
/// microbench charges the replay but not the plane build fire pays for
/// it, so a stage can "win" its grid and still lose the engine (BENCH
/// v5's MLP sat 7–9% under forced-dense this way). 2% keeps genuine
/// wins and measurement ties while rejecting configurations that only
/// look good from inside the kernel.
const PLANE_COST_SLACK: f64 = 1.02;

/// A synthetic SoA input of `len × width` lane-elements at spike
/// density `d`.
fn density_input(rng: &mut StdRng, len: usize, width: usize, d: f32) -> Vec<f32> {
    (0..len * width)
        .map(|_| {
            if rng.gen_range(0.0..1.0f32) < d {
                rng.gen_range(0.01..1.0f32)
            } else {
                0.0
            }
        })
        .collect()
}

/// A grid scan's crossover density: `0.0` means "always dense"; a
/// value above 1.0 means the challenger won the whole grid.
fn crossover_from(first_dense_win: Option<usize>) -> f32 {
    match first_dense_win {
        Some(0) => 0.0,
        Some(gi) => (DENSITY_GRID[gi - 1] + DENSITY_GRID[gi]) / 2.0,
        None => 1.01,
    }
}

/// Micro-benchmarks each stage's synapse strategy-vs-strategy over the
/// density grid at lockstep width `width` and returns the per-stage
/// crossover densities (hidden stages, then the output synapse) of
/// both challengers against dense: `(packed_thresholds,
/// quant_thresholds)`. `0.0` means "always dense"; a value above 1.0
/// means "always the challenger". The packed and quantized strategies
/// are timed the way the engine runs them per stage: hidden-fed stages
/// (index ≥ 1) replay pre-built bit-planes — fire packs them for free
/// during staging, so the mask build happens outside the timed region —
/// while stage 0 self-packs from the input SoA. Both are timed with no
/// magnitude base / no uniform magnitude (every synthetic magnitude
/// reads raw), which is each strategy's worst case — real spike traffic
/// rides the exponent plane. Neither challenger runs wider than the
/// 64-lane mask plane, and the quantized one only exists for dense
/// synapses; elsewhere its crossover is `0.0`. Speed is all this
/// function measures — whether int8 is *accurate enough* is the
/// separate eligibility gate in [`autotune_batch`].
fn calibrate_crossovers(
    net: &SpikingNetwork,
    width: usize,
    cfg: &AutotuneConfig,
    rng: &mut StdRng,
) -> Result<(Vec<f32>, Vec<f32>), SnnError> {
    let mut synapses: Vec<&Synapse> = net.layers().iter().map(|l| l.synapse()).collect();
    synapses.push(net.output_synapse());
    let mut scratch = KernelScratch::default();
    let mut quant_scratch = crate::quant::QuantScratch::default();
    let mut packed_thresholds = Vec::with_capacity(synapses.len());
    let mut quant_thresholds = Vec::with_capacity(synapses.len());
    let plane_fits = width <= 64;
    for (stage_idx, syn) in synapses.into_iter().enumerate() {
        let in_len = syn.input_len();
        let out_len = syn.output_len();
        let quant = match syn {
            Synapse::Dense { weight } if plane_fits => {
                crate::quant::QuantizedDense::from_weights(weight)
            }
            _ => None,
        };
        let mut psp = vec![0.0f32; out_len * width];
        let mut vmem = vec![0.0f32; out_len * width];
        // Iterations per timed measurement, sized so tiny stages are
        // still measurable above timer resolution.
        let iters = (32_768 / (in_len * width).max(1)).clamp(2, 64);
        // Index into the grid of the first density where dense beat
        // each challenger (the grid is scanned in ascending density,
        // where event-driven strategies can only get weaker).
        let mut packed_lost = if plane_fits { None } else { Some(0) };
        let mut quant_lost = if quant.is_some() { None } else { Some(0) };
        for (gi, &d) in DENSITY_GRID.iter().enumerate() {
            if packed_lost.is_some() && quant_lost.is_some() {
                break;
            }
            let input = density_input(rng, in_len, width, d);
            // Hidden-fed stages get their bit-planes from fire's
            // staging pass at runtime, so the plane build is not
            // charged to the packed strategy here.
            let masks: Option<Vec<u64>> = (stage_idx >= 1).then(|| {
                input
                    .chunks_exact(width)
                    .map(crate::synapse::lane_mask)
                    .collect()
            });
            let mut dense_best = f64::INFINITY;
            let mut packed_best = f64::INFINITY;
            let mut quant_best = f64::INFINITY;
            // Each strategy is charged its full per-step cost: the
            // kernel plus the integration pass in the layout it
            // produces (the lane-major fold is a transposed add).
            for _ in 0..cfg.density_reps {
                psp.iter_mut().for_each(|p| *p = 0.0);
                let t0 = Instant::now();
                for _ in 0..iters {
                    syn.accumulate_batch(&input, &mut psp, width)?;
                    crate::batch::integrate(&mut vmem, &psp, false, out_len, width);
                }
                dense_best = dense_best.min(t0.elapsed().as_secs_f64());
                if packed_lost.is_none() {
                    psp.iter_mut().for_each(|p| *p = 0.0);
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        match &masks {
                            Some(masks) => syn.accumulate_batch_packed_planes(
                                &input, &mut psp, width, masks, None, None,
                            )?,
                            None => syn.accumulate_batch_packed(
                                &input,
                                &mut psp,
                                width,
                                None,
                                &mut scratch,
                            )?,
                        }
                        crate::batch::integrate(&mut vmem, &psp, true, out_len, width);
                    }
                    packed_best = packed_best.min(t0.elapsed().as_secs_f64());
                }
                if let (Some(qd), None) = (&quant, quant_lost) {
                    psp.iter_mut().for_each(|p| *p = 0.0);
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        match &masks {
                            Some(masks) => qd.accumulate_packed_planes(
                                &input,
                                &mut psp,
                                width,
                                masks,
                                None,
                                None,
                                &mut quant_scratch,
                            )?,
                            None => qd.accumulate_packed(
                                &input,
                                &mut psp,
                                width,
                                None,
                                &mut quant_scratch,
                            )?,
                        }
                        crate::batch::integrate(&mut vmem, &psp, true, out_len, width);
                    }
                    quant_best = quant_best.min(t0.elapsed().as_secs_f64());
                }
            }
            if packed_lost.is_none() && packed_best * PACKED_WIN_MARGIN >= dense_best {
                packed_lost = Some(gi);
            }
            if quant_lost.is_none() && quant_best * PACKED_WIN_MARGIN >= dense_best {
                quant_lost = Some(gi);
            }
        }
        packed_thresholds.push(crossover_from(packed_lost));
        quant_thresholds.push(crossover_from(quant_lost));
    }
    Ok((packed_thresholds, quant_thresholds))
}

/// Measures `net`'s lockstep throughput at each candidate width on a
/// short synthetic warm-up and returns the width it should run at,
/// together with the calibrated per-stage kernel crossovers and int8
/// eligibility.
///
/// Crossovers are calibrated first (at the widest candidate width,
/// where the packed kernel's trade against dense matters most) and the
/// packed ones are installed into every width probe's engine, so the
/// width decision reflects the density-dispatching engine consumers
/// will actually run. If the preferred width ends up different, the
/// crossovers are re-calibrated at that width.
///
/// `scheme` must be the coding the model serves under — the input
/// coding decides whether the encoder restages the drive every step,
/// which shifts the break-even width. The probe is wall-clock-based:
/// run it on the machine (and core count) that will execute the
/// workload, and expect small run-to-run variation; the `min_gain`
/// hysteresis keeps the decision stable for all but razor-thin ties.
///
/// # Errors
///
/// Returns [`SnnError::InvalidConfig`] for degenerate configs and
/// propagates simulation errors.
pub fn autotune_batch(
    net: &SpikingNetwork,
    scheme: CodingScheme,
    cfg: &AutotuneConfig,
) -> Result<BatchPolicy, SnnError> {
    cfg.validate()?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let max_width = *cfg.widths.iter().max().expect("nonempty widths");
    let (mut packed_thresholds, mut quant_thresholds) = if cfg.calibrate_density {
        calibrate_crossovers(net, max_width, cfg, &mut rng)?
    } else {
        (Vec::new(), Vec::new())
    };
    let images = warmup_images(&mut rng, max_width, net.input_len());
    let eval = EvalConfig::new(scheme, cfg.steps).with_phase_period(cfg.phase_period);
    let mut probes = Vec::with_capacity(cfg.widths.len());
    for &width in &cfg.widths {
        let mut engine = BatchedNetwork::new(net.clone(), width)?;
        engine.set_dispatch(packed_policy(packed_thresholds.clone()));
        let refs: Vec<&[f32]> = images[..width].iter().map(|v| v.as_slice()).collect();
        let mut best = f64::INFINITY;
        for _ in 0..cfg.reps {
            let t0 = Instant::now();
            let mut run = BatchedStepwiseInference::new(&mut engine, &refs, &eval)?;
            while run.advance()? {}
            best = best.min(t0.elapsed().as_secs_f64());
        }
        let lane_steps_per_sec = if best > 0.0 {
            (width * cfg.steps) as f64 / best
        } else {
            f64::INFINITY
        };
        probes.push(BatchProbe {
            width,
            lane_steps_per_sec,
        });
    }
    // Prefer the narrowest width; a wider candidate must beat the
    // incumbent by `min_gain` to take over.
    let mut ranked = probes.clone();
    ranked.sort_by_key(|p| p.width);
    let mut preferred = ranked[0];
    for &probe in &ranked[1..] {
        if probe.lane_steps_per_sec > preferred.lane_steps_per_sec * (1.0 + cfg.min_gain) {
            preferred = probe;
        }
    }
    if cfg.calibrate_density && preferred.width != max_width {
        (packed_thresholds, quant_thresholds) =
            calibrate_crossovers(net, preferred.width, cfg, &mut rng)?;
    }
    if cfg.calibrate_density {
        validate_packed_thresholds(
            net,
            preferred.width,
            cfg,
            &eval,
            &images,
            &mut packed_thresholds,
        )?;
    }
    let quant_eligible = if cfg.calibrate_density {
        gate_quant_eligibility(
            net,
            scheme,
            cfg,
            preferred.width,
            &packed_thresholds,
            &quant_thresholds,
            &mut rng,
        )?
    } else {
        Vec::new()
    };
    Ok(BatchPolicy {
        preferred_batch: preferred.width,
        probes,
        density_thresholds: Vec::new(),
        packed_thresholds,
        quant_thresholds,
        quant_eligible,
    })
}

/// An `Auto` policy with the given packed crossovers and no int8
/// stages.
fn packed_policy(packed_thresholds: Vec<f32>) -> DispatchPolicy {
    DispatchPolicy {
        mode: DispatchMode::Auto,
        packed_thresholds,
        ..DispatchPolicy::default()
    }
}

/// Best-of-reps wall clock of one full lockstep presentation at
/// `width` under `policy`.
fn engine_secs(
    net: &SpikingNetwork,
    width: usize,
    cfg: &AutotuneConfig,
    eval: &EvalConfig,
    images: &[Vec<f32>],
    policy: DispatchPolicy,
) -> Result<f64, SnnError> {
    let mut engine = BatchedNetwork::new(net.clone(), width)?;
    engine.set_dispatch(policy);
    let refs: Vec<&[f32]> = images[..width].iter().map(|v| v.as_slice()).collect();
    let mut best = f64::INFINITY;
    for _ in 0..cfg.reps {
        let t0 = Instant::now();
        let mut run = BatchedStepwiseInference::new(&mut engine, &refs, eval)?;
        while run.advance()? {}
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Ok(best)
}

/// Engine-level validation of the calibrated packed crossovers: the
/// kernel grid measures the mask replay but not the plane build every
/// fire pass pays once *any* stage can consume planes, so a stage can
/// win its microbench and still slow the whole engine down. Starting
/// from a plane-free baseline, each positive crossover is re-admitted
/// only if whole-engine wall clock stays within [`PLANE_COST_SLACK`]
/// of the best accepted configuration; the rest are zeroed, which lets
/// the engine skip plane construction outright.
fn validate_packed_thresholds(
    net: &SpikingNetwork,
    width: usize,
    cfg: &AutotuneConfig,
    eval: &EvalConfig,
    images: &[Vec<f32>],
    packed_thresholds: &mut Vec<f32>,
) -> Result<(), SnnError> {
    if packed_thresholds.iter().all(|&t| t <= 0.0) {
        return Ok(());
    }
    let mut accepted = vec![0.0; packed_thresholds.len()];
    let mut best = engine_secs(
        net,
        width,
        cfg,
        eval,
        images,
        packed_policy(accepted.clone()),
    )?;
    for k in 0..packed_thresholds.len() {
        if packed_thresholds[k] <= 0.0 {
            continue;
        }
        let mut trial = accepted.clone();
        trial[k] = packed_thresholds[k];
        let t = engine_secs(net, width, cfg, eval, images, packed_policy(trial.clone()))?;
        if t <= best * PLANE_COST_SLACK {
            accepted = trial;
            best = best.min(t);
        }
    }
    *packed_thresholds = accepted;
    Ok(())
}

/// Runs `images` through an engine at `width` under `policy` and
/// returns the per-image argmax predictions.
fn policy_predictions(
    net: &SpikingNetwork,
    width: usize,
    policy: DispatchPolicy,
    images: &[Vec<f32>],
    eval: &EvalConfig,
) -> Result<Vec<usize>, SnnError> {
    let mut engine = BatchedNetwork::new(net.clone(), width)?;
    engine.set_dispatch(policy);
    let mut preds = Vec::with_capacity(images.len());
    for chunk in images.chunks(width) {
        let refs: Vec<&[f32]> = chunk.iter().map(|v| v.as_slice()).collect();
        let mut run = BatchedStepwiseInference::new(&mut engine, &refs, eval)?;
        while run.advance()? {}
        for lane in 0..chunk.len() {
            preds.push(run.prediction(lane));
        }
    }
    Ok(preds)
}

/// The accuracy-delta gate: a stage may quantize under `Auto` only if
/// end-to-end prediction agreement with the f32 engine on a synthetic
/// calibration set stays within [`AutotuneConfig::quant_delta`] —
/// tested per stage with the int8 kernel forced on for that stage
/// alone, and then once more with **every** surviving stage quantizing
/// at once (quantization error compounds across stages; if the
/// combined run fails, the gate refuses all of them).
///
/// Stages whose calibrated quant crossover is `0.0` (int8 never won
/// the speed grid — conv/pool stages always, since they have no weight
/// matrix) are skipped: marking them eligible could only slow the
/// engine down.
fn gate_quant_eligibility(
    net: &SpikingNetwork,
    scheme: CodingScheme,
    cfg: &AutotuneConfig,
    width: usize,
    packed_thresholds: &[f32],
    quant_thresholds: &[f32],
    rng: &mut StdRng,
) -> Result<Vec<bool>, SnnError> {
    let n_stages = quant_thresholds.len();
    let mut eligible = vec![false; n_stages];
    let candidates: Vec<usize> = (0..n_stages)
        .filter(|&k| quant_thresholds[k] > 0.0)
        .collect();
    if candidates.is_empty() || width > 64 {
        return Ok(eligible);
    }
    let images = warmup_images(rng, cfg.quant_gate_images, net.input_len());
    let eval = EvalConfig::new(scheme, cfg.steps).with_phase_period(cfg.phase_period);
    let base_policy = packed_policy(packed_thresholds.to_vec());
    let reference = policy_predictions(net, width, base_policy.clone(), &images, &eval)?;
    let agree_floor = 1.0 - cfg.quant_delta;
    let agreement = |preds: &[usize]| {
        let same = preds.iter().zip(&reference).filter(|(a, b)| a == b).count();
        same as f64 / reference.len().max(1) as f64
    };
    // The gate forces each candidate's crossover past the grid top, so
    // the stage quantizes on every step the kernel can run — the
    // harshest exposure the serving engine could see.
    let gate_thresholds: Vec<f32> = quant_thresholds
        .iter()
        .map(|&t| if t > 0.0 { 1.01 } else { 0.0 })
        .collect();
    for &k in &candidates {
        let mut one = vec![false; n_stages];
        one[k] = true;
        let policy = DispatchPolicy {
            quant_thresholds: gate_thresholds.clone(),
            quant_eligible: one,
            ..base_policy.clone()
        };
        let preds = policy_predictions(net, width, policy, &images, &eval)?;
        eligible[k] = agreement(&preds) >= agree_floor;
    }
    if eligible.iter().filter(|&&e| e).count() > 1 {
        let policy = DispatchPolicy {
            quant_thresholds: gate_thresholds,
            quant_eligible: eligible.clone(),
            ..base_policy
        };
        let preds = policy_predictions(net, width, policy, &images, &eval)?;
        if agreement(&preds) < agree_floor {
            // Compounded error across stages: refuse quantization
            // outright rather than guess which stage to keep.
            eligible.iter_mut().for_each(|e| *e = false);
        }
    }
    Ok(eligible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::{HiddenCoding, InputCoding};
    use crate::layer::{SpikingLayer, ThresholdPolicy};
    use crate::synapse::Synapse;
    use bsnn_tensor::Tensor;

    fn tiny_network() -> SpikingNetwork {
        let dense = |n: usize| Synapse::Dense {
            weight: Tensor::from_vec(vec![0.3; n * n], &[n, n]).unwrap(),
        };
        let hidden =
            SpikingLayer::new(dense(4), None, ThresholdPolicy::Fixed { vth: 0.5 }).unwrap();
        SpikingNetwork::new(4, vec![hidden], dense(4), None).unwrap()
    }

    fn quick_cfg() -> AutotuneConfig {
        AutotuneConfig {
            steps: 4,
            reps: 1,
            ..AutotuneConfig::default()
        }
    }

    #[test]
    fn degenerate_configs_rejected() {
        let net = tiny_network();
        let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
        for bad in [
            AutotuneConfig {
                widths: vec![],
                ..quick_cfg()
            },
            AutotuneConfig {
                widths: vec![0, 4],
                ..quick_cfg()
            },
            AutotuneConfig {
                steps: 0,
                ..quick_cfg()
            },
            AutotuneConfig {
                reps: 0,
                ..quick_cfg()
            },
            AutotuneConfig {
                min_gain: f64::NAN,
                ..quick_cfg()
            },
            AutotuneConfig {
                density_reps: 0,
                ..quick_cfg()
            },
            AutotuneConfig {
                quant_delta: -0.1,
                ..quick_cfg()
            },
            AutotuneConfig {
                quant_delta: f64::NAN,
                ..quick_cfg()
            },
            AutotuneConfig {
                quant_gate_images: 0,
                ..quick_cfg()
            },
        ] {
            assert!(autotune_batch(&net, scheme, &bad).is_err());
        }
    }

    #[test]
    fn density_calibration_covers_every_stage() {
        let net = tiny_network();
        let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
        let policy = autotune_batch(&net, scheme, &quick_cfg()).unwrap();
        // One crossover per hidden stage plus the output synapse, for
        // both challengers; the removed sparse kernel's field stays
        // empty.
        assert!(policy.density_thresholds.is_empty());
        assert_eq!(policy.packed_thresholds.len(), net.layers().len() + 1);
        assert_eq!(policy.quant_thresholds.len(), net.layers().len() + 1);
        assert_eq!(policy.quant_eligible.len(), net.layers().len() + 1);
        for &th in policy
            .packed_thresholds
            .iter()
            .chain(&policy.quant_thresholds)
        {
            assert!((0.0..=1.01).contains(&th), "crossover {th} out of range");
        }
        // Eligibility can only be granted where the int8 kernel ever
        // won the speed grid.
        for (k, &e) in policy.quant_eligible.iter().enumerate() {
            if e {
                assert!(
                    policy.quant_thresholds[k] > 0.0,
                    "stage {k} eligible sans win"
                );
            }
        }
        // Calibration off → no thresholds recorded, gate not run.
        let cfg = AutotuneConfig {
            calibrate_density: false,
            ..quick_cfg()
        };
        let policy = autotune_batch(&net, scheme, &cfg).unwrap();
        assert!(policy.density_thresholds.is_empty());
        assert!(policy.packed_thresholds.is_empty());
        assert!(policy.quant_thresholds.is_empty());
        assert!(policy.quant_eligible.is_empty());
    }

    #[test]
    fn preferred_width_is_a_candidate_with_evidence() {
        let net = tiny_network();
        let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
        let cfg = quick_cfg();
        let policy = autotune_batch(&net, scheme, &cfg).unwrap();
        assert!(cfg.widths.contains(&policy.preferred_batch));
        assert_eq!(policy.probes.len(), cfg.widths.len());
        for probe in &policy.probes {
            assert!(probe.lane_steps_per_sec > 0.0, "{probe:?}");
        }
        assert!(policy.probe_for(policy.preferred_batch).is_some());
        assert!(policy.probe_for(3).is_none());
        assert!(policy.speedup_vs_scalar() > 0.0);
    }

    #[test]
    fn infinite_gain_pins_scalar() {
        // With an unreachable gain requirement the narrowest width always
        // wins — the hysteresis knob is honored.
        let net = tiny_network();
        let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
        let cfg = AutotuneConfig {
            min_gain: 1e12,
            ..quick_cfg()
        };
        let policy = autotune_batch(&net, scheme, &cfg).unwrap();
        assert_eq!(policy.preferred_batch, 1);
    }
}
