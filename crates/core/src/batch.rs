//! Batched lockstep inference: step B images through one network
//! simultaneously, with all dynamic state held in structure-of-arrays,
//! batch-innermost layout (`[neuron][batch]`).
//!
//! ## Why lockstep
//!
//! The serving runtime's micro-batching (PR 2) amortizes queue
//! synchronization but still runs each request's simulation alone, so
//! the hot scatter loops in [`Synapse`] stay scalar. A lockstep batch
//! makes the *innermost* dimension of every kernel the contiguous batch
//! axis: the lane loop runs as SIMD (SSE on x86-64) and every synaptic
//! weight is loaded once per batch instead of once per image. The trade
//! is sparsity: an input neuron is skipped only when it is silent in
//! *every* lane (and the conv kernel at 4, 8 and 16 lanes skips none).
//! Measured on the synthetic-digit conv network this trade wins >2.5× at
//! batch 16 (see the `batched_sim` bench).
//!
//! ## Lane semantics
//!
//! Lanes never interact: per-lane results are bit-identical to running
//! each image alone through [`crate::StepwiseInference`] (pinned by the
//! `batched_equivalence` test suite across all threshold policies, both
//! reset modes, and batch sizes {1, 2, 7, 16}). A lane can *retire*
//! mid-run (anytime early exit): its outputs are snapshotted, its
//! column is compacted out of the SoA state, and the surviving lanes
//! continue unperturbed — so a batch's per-step cost tracks its *live*
//! width, and stragglers never pay for lanes that already answered.
//!
//! ## One kernel
//!
//! Every (stage, step) that misses the PSP cache below runs the dense
//! lockstep kernel ([`crate::synapse::Synapse::accumulate_batch`]) into
//! a batch-innermost PSP; which loop it runs depends only on the
//! stage's synapse and the lockstep width. There is no per-step kernel
//! choice to make, so nothing is calibrated or shipped with a model.
//! Each stage's input spike density is still tallied for the profile,
//! at no extra pass: stage `k`'s input events are stage `k − 1`'s spike
//! counts for this step (already counted by the fire loop), and the
//! input layer's are counted while staging.
//!
//! ## Periodic-input PSP caching
//!
//! Phase- and TTFS-coded inputs are *periodic*: the drive at step `t`
//! is a pure function of `t % period` (real coding is the period-1
//! case). The engine therefore caches the first stage's PSP per phase
//! token — after the first period, a step skips the encoders, the SoA
//! staging copy, and the first-stage kernel outright, replaying the
//! cached PSP (and cached per-lane input spike counts) bit-exactly.
//! On the phase-burst MLP workload this turns the first stage from the
//! dominant per-step cost into a single integration pass. The cache is
//! invalidated whenever the lockstep width changes (lane retirement),
//! and rebuilt over the next period.
//!
//! [`Synapse`]: crate::synapse::Synapse

use crate::coding::InputCoding;
use crate::encoder::InputEncoder;
use crate::layer::{ResetMode, ThresholdPolicy};
use crate::network::{argmax_last, top2_margin, SpikingNetwork};
use crate::recorder::RecordLevel;
use crate::simulator::EvalConfig;
use crate::SnnError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Inert: `Auto` is the only variant, and the engine has one kernel.
/// Kept so existing callers such as the `perfbench` harness still build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Inert: the only mode.
    #[default]
    Auto,
}

/// Inert: the engine ignores every field (see
/// [`BatchedNetwork::set_dispatch`]). Kept, with its five fields and its
/// `Default`, so existing callers such as the `perfbench` harness still
/// build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DispatchPolicy {
    /// Inert: always [`DispatchMode::Auto`].
    pub mode: DispatchMode,
    /// Inert: ignored by the engine.
    pub thresholds: Vec<f32>,
    /// Inert: ignored by the engine.
    pub packed_thresholds: Vec<f32>,
    /// Inert: ignored by the engine.
    pub quant_thresholds: Vec<f32>,
    /// Inert: ignored by the engine.
    pub quant_eligible: Vec<bool>,
}

/// How one (stage, step) got its PSP — the label a [`ProfileSink`]
/// records alongside the step's density and wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// The dense lockstep kernel ran.
    Dense,
    /// The cached first-stage PSP was replayed (no kernel ran).
    Cached,
}

/// Fixed-point scale for densities accumulated atomically in a
/// [`ProfileSink`] (1.0 density = 1e6 units).
const DENSITY_FP: f64 = 1_000_000.0;

/// Per-stage atomic profile counters (see [`ProfileSink`]).
#[derive(Debug, Default)]
struct StageProfileCell {
    dense_steps: AtomicU64,
    cached_steps: AtomicU64,
    /// Density × [`DENSITY_FP`], summed over the steps that ran a
    /// kernel.
    density_fp_sum: AtomicU64,
    /// Wall time of the stage's kernel + integrate + fire work, ns.
    kernel_nanos: AtomicU64,
}

/// A lock-free engine profiling sink: per-(stage, step) kernel or
/// cache replay, observed input density, and stage wall time, plus
/// whole-step wall time and batch counts.
///
/// Attach one via [`BatchedNetwork::set_profile_sink`]; it may be
/// shared (`Arc`) by every engine serving the same model, so the
/// aggregate is a live per-model stage profile. When no sink is
/// attached the engine takes **no** timestamps — the hot path pays a
/// single branch.
///
/// All counters are monotonic and recorded with `Relaxed` atomics;
/// [`snapshot`](Self::snapshot) is a point-in-time copy (use snapshot
/// deltas to profile a window).
#[derive(Debug)]
pub struct ProfileSink {
    stages: Vec<StageProfileCell>,
    batches: AtomicU64,
    steps: AtomicU64,
    step_nanos: AtomicU64,
}

impl ProfileSink {
    /// A zeroed sink for `stages` pipeline stages (a network's hidden
    /// stages plus its output synapse — `layers().len() + 1`).
    pub fn new(stages: usize) -> Self {
        ProfileSink {
            stages: (0..stages).map(|_| StageProfileCell::default()).collect(),
            batches: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            step_nanos: AtomicU64::new(0),
        }
    }

    /// Number of pipeline stages this sink tracks.
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    fn record_stage(&self, stage: usize, kind: KernelKind, density: f64, nanos: u64) {
        let Some(cell) = self.stages.get(stage) else {
            return; // sink sized for a different network: drop silently
        };
        match kind {
            KernelKind::Dense => {
                cell.dense_steps.fetch_add(1, Ordering::Relaxed);
                cell.density_fp_sum
                    .fetch_add((density * DENSITY_FP) as u64, Ordering::Relaxed);
            }
            KernelKind::Cached => {
                cell.cached_steps.fetch_add(1, Ordering::Relaxed);
            }
        }
        cell.kernel_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    fn record_step(&self, nanos: u64) {
        self.steps.fetch_add(1, Ordering::Relaxed);
        self.step_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Zeroes every counter (e.g. between benchmark phases).
    pub fn reset(&self) {
        for cell in &self.stages {
            cell.dense_steps.store(0, Ordering::Relaxed);
            cell.cached_steps.store(0, Ordering::Relaxed);
            cell.density_fp_sum.store(0, Ordering::Relaxed);
            cell.kernel_nanos.store(0, Ordering::Relaxed);
        }
        self.batches.store(0, Ordering::Relaxed);
        self.steps.store(0, Ordering::Relaxed);
        self.step_nanos.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            stages: self
                .stages
                .iter()
                .map(|cell| {
                    let dense = cell.dense_steps.load(Ordering::Relaxed);
                    let mean_density = if dense == 0 {
                        0.0
                    } else {
                        cell.density_fp_sum.load(Ordering::Relaxed) as f64
                            / DENSITY_FP
                            / dense as f64
                    };
                    StageProfileSnapshot {
                        dense_steps: dense,
                        sparse_steps: 0,
                        packed_steps: 0,
                        quant_steps: 0,
                        cached_steps: cell.cached_steps.load(Ordering::Relaxed),
                        mean_density,
                        kernel_nanos: cell.kernel_nanos.load(Ordering::Relaxed),
                    }
                })
                .collect(),
            batches: self.batches.load(Ordering::Relaxed),
            steps: self.steps.load(Ordering::Relaxed),
            step_nanos: self.step_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`ProfileSink`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSnapshot {
    /// Per-stage profiles (hidden stages, then the output synapse).
    pub stages: Vec<StageProfileSnapshot>,
    /// Lockstep batches started ([`BatchedNetwork::begin_batch`]).
    pub batches: u64,
    /// Engine steps executed (every live lane advances together).
    pub steps: u64,
    /// Total step wall time, ns.
    pub step_nanos: u64,
}

/// One stage's aggregated profile inside a [`ProfileSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageProfileSnapshot {
    /// Steps executed with the dense kernel.
    pub dense_steps: u64,
    /// Always 0: the sparse kernel is gone; kept so existing readers
    /// such as the `perfbench` harness still build.
    pub sparse_steps: u64,
    /// Always 0: the packed kernel is gone; kept so existing readers
    /// such as the `perfbench` harness still build.
    pub packed_steps: u64,
    /// Always 0: the int8 kernel is gone; kept so existing readers
    /// such as the `perfbench` harness still build.
    pub quant_steps: u64,
    /// Steps that replayed the cached PSP (no kernel ran).
    pub cached_steps: u64,
    /// Mean input density over the steps that ran the kernel.
    pub mean_density: f64,
    /// Stage wall time (kernel + integrate + fire), ns.
    pub kernel_nanos: u64,
}

impl StageProfileSnapshot {
    /// Total steps accounted to this stage.
    pub fn total_steps(&self) -> u64 {
        self.dense_steps + self.cached_steps
    }
}

/// The next lockstep width with a monomorphized fixed-width kernel
/// (`{1, 2, 4, 8, 16}`); widths above 16 are returned unchanged. Ragged
/// tail chunks padded up to this width with dead lanes run 2–4× faster
/// per live lane than the dynamic-width dense path (see
/// [`BatchedStepwiseInference::new_padded`]).
pub fn padded_width(n: usize) -> usize {
    match n {
        0..=1 => n,
        2 => 2,
        3..=4 => 4,
        5..=8 => 8,
        9..=16 => 16,
        wider => wider,
    }
}

/// Per-stage structure-of-arrays state: `[neuron][width]` buffers for
/// membrane potentials, burst functions, PSPs, and output spikes.
#[derive(Debug, Clone, Default)]
struct StageState {
    vmem: Vec<f32>,
    g: Vec<f32>,
    psp: Vec<f32>,
    out: Vec<f32>,
}

impl StageState {
    fn reset(&mut self, len: usize) {
        self.vmem.clear();
        self.vmem.resize(len, 0.0);
        self.g.clear();
        self.g.resize(len, 1.0);
        self.psp.clear();
        self.psp.resize(len, 0.0);
        self.out.clear();
        self.out.resize(len, 0.0);
    }

    fn remove_column(&mut self, width: usize, col: usize) {
        remove_column(&mut self.vmem, width, col);
        remove_column(&mut self.g, width, col);
        remove_column(&mut self.psp, width, col);
        remove_column(&mut self.out, width, col);
    }
}

/// One cached first-stage PSP, keyed by the input-generation token.
#[derive(Debug, Clone)]
struct PspSlot {
    token: u64,
    psp: Vec<f32>,
}

/// Upper bound on cached first-stage PSP slots. Periodic input codings
/// produce at most `period` distinct tokens (phase coding caps the
/// period at 24); the bound only guards against a pathological caller
/// cycling unbounded token values.
const MAX_INPUT_PSP_SLOTS: usize = 32;

/// `vmem += psp`, elementwise over the batch-innermost buffers.
fn integrate(vmem: &mut [f32], psp: &[f32]) {
    for (v, p) in vmem.iter_mut().zip(psp) {
        *v += p;
    }
}

/// Compacts column `col` out of a `[rows][width]` SoA buffer in place.
fn remove_column(buf: &mut Vec<f32>, width: usize, col: usize) {
    debug_assert!(col < width && buf.len().is_multiple_of(width));
    let rows = buf.len() / width;
    let mut write = 0usize;
    for r in 0..rows {
        for c in 0..width {
            if c != col {
                buf[write] = buf[r * width + c];
                write += 1;
            }
        }
    }
    buf.truncate(write);
}

/// A spiking network stepping up to `max_batch` images in lockstep.
///
/// Holds its own pristine copy of the network (weights, policies) plus
/// SoA dynamic state sized for the current batch width. All buffers are
/// reused across batches — after the first presentation of each batch
/// width, stepping performs **no allocation**.
///
/// This is the storage/kernels half of the batched engine; drive it
/// through [`BatchedStepwiseInference`], which adds per-lane encoders,
/// spike accounting, and early-exit retirement.
#[derive(Debug, Clone)]
pub struct BatchedNetwork {
    template: SpikingNetwork,
    max_batch: usize,
    /// Current lockstep width (live columns).
    width: usize,
    stages: Vec<StageState>,
    out_vmem: Vec<f32>,
    out_psp: Vec<f32>,
    input_soa: Vec<f32>,
    /// Nonzero entries currently staged per column (the input layer's
    /// free density probe).
    input_nnz: Vec<usize>,
    /// First-stage PSPs cached per input-generation token. Static
    /// inputs occupy one slot; phase/TTFS-periodic inputs one per
    /// phase, so after the first period the encoder, the staging copy,
    /// and the first-stage kernel are all skipped — bit-exactly, since
    /// a periodic drive reproduces the identical PSP. Invalidated
    /// whenever the width changes.
    input_psp_cache: Vec<PspSlot>,
    /// Optional profiling sink; when absent, stepping takes no
    /// timestamps.
    profile: Option<Arc<ProfileSink>>,
}

impl BatchedNetwork {
    /// Wraps a pristine network template for lockstep batches of up to
    /// `max_batch` lanes.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for a zero `max_batch`.
    pub fn new(template: SpikingNetwork, max_batch: usize) -> Result<Self, SnnError> {
        if max_batch == 0 {
            return Err(SnnError::InvalidConfig(
                "batched network needs max_batch >= 1".into(),
            ));
        }
        let stages = vec![StageState::default(); template.layers().len()];
        Ok(BatchedNetwork {
            template,
            max_batch,
            width: 0,
            stages,
            out_vmem: Vec::new(),
            out_psp: Vec::new(),
            input_soa: Vec::new(),
            input_nnz: Vec::new(),
            input_psp_cache: Vec::new(),
            profile: None,
        })
    }

    /// Attaches (or detaches, with `None`) a profiling sink. The sink
    /// may be shared by several engines serving the same model; its
    /// counters then aggregate across all of them. Profiling never
    /// changes results — it only adds per-stage timestamps.
    pub fn set_profile_sink(&mut self, sink: Option<Arc<ProfileSink>>) {
        self.profile = sink;
    }

    /// The attached profiling sink, if any.
    pub fn profile_sink(&self) -> Option<&Arc<ProfileSink>> {
        self.profile.as_ref()
    }

    /// Inert: ignores its argument, since the engine has one kernel.
    /// Kept so existing callers such as the `perfbench` harness still
    /// build.
    pub fn set_dispatch(&mut self, _dispatch: DispatchPolicy) {}

    /// The pristine single-image network this batch engine was built
    /// from.
    pub fn template(&self) -> &SpikingNetwork {
        &self.template
    }

    /// Maximum lockstep width.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Current lockstep width — live columns only (0 before the first
    /// [`begin_batch`](Self::begin_batch)).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of input neurons per lane.
    pub fn input_len(&self) -> usize {
        self.template.input_len()
    }

    /// Number of output classes per lane.
    pub fn output_len(&self) -> usize {
        self.template.output_len()
    }

    /// Number of spike-emitting layers (input layer + hidden stages),
    /// i.e. the row count of the per-column spike-count matrix.
    pub fn spiking_layers(&self) -> usize {
        1 + self.template.layers().len()
    }

    /// Prepares the engine for a fresh lockstep batch of `width` lanes:
    /// zeroes membranes and PSPs and resets burst functions and caches.
    /// Buffer capacity is retained, so repeated batches do not allocate.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] when `width` is zero or
    /// exceeds [`max_batch`](Self::max_batch).
    pub fn begin_batch(&mut self, width: usize) -> Result<(), SnnError> {
        if width == 0 || width > self.max_batch {
            return Err(SnnError::InvalidConfig(format!(
                "batch {width} outside 1..={}",
                self.max_batch
            )));
        }
        self.width = width;
        for (stage, layer) in self.stages.iter_mut().zip(self.template.layers()) {
            stage.reset(layer.len() * width);
        }
        let classes = self.template.output_len();
        self.out_vmem.clear();
        self.out_vmem.resize(classes * width, 0.0);
        self.out_psp.clear();
        self.out_psp.resize(classes * width, 0.0);
        self.input_soa.clear();
        self.input_soa
            .resize(self.template.input_len() * width, 0.0);
        self.input_nnz.clear();
        self.input_nnz.resize(width, 0);
        self.input_psp_cache.clear();
        if let Some(sink) = &self.profile {
            sink.record_batch();
        }
        Ok(())
    }

    /// Whether a first-stage PSP is cached for `token` at the current
    /// width. A `true` here means the next [`step`](Self::step) with
    /// this token will not read the staged input at all — callers can
    /// skip encoding and staging it.
    pub fn psp_cached(&self, token: u64) -> bool {
        self.input_psp_cache.iter().any(|s| s.token == token)
    }

    /// Compacts one column out of every SoA buffer: the remaining
    /// columns keep their relative order (column `c > col` becomes
    /// `c - 1`) and their values bit-exactly, and subsequent steps cost
    /// only the reduced width. Invalidates the first stage's PSP cache
    /// and the staged input (restage before the next step).
    ///
    /// # Panics
    ///
    /// Panics if `col >= width()` (or if the batch is already empty).
    pub fn remove_lane(&mut self, col: usize) {
        assert!(col < self.width, "column {col} out of width {}", self.width);
        let width = self.width;
        for stage in &mut self.stages {
            stage.remove_column(width, col);
        }
        remove_column(&mut self.out_vmem, width, col);
        remove_column(&mut self.out_psp, width, col);
        remove_column(&mut self.input_soa, width, col);
        self.input_nnz.remove(col);
        // Cached PSPs are sized for the old width.
        self.input_psp_cache.clear();
        self.width -= 1;
    }

    /// Writes one column's input drive for the upcoming step into the
    /// SoA staging buffer.
    ///
    /// # Panics
    ///
    /// Panics if `col >= width()` or `drive.len() != input_len()`.
    pub fn stage_lane_input(&mut self, col: usize, drive: &[f32]) {
        let w = self.width;
        assert!(col < w, "column out of range");
        assert_eq!(drive.len(), self.template.input_len(), "drive length");
        let mut nnz = 0usize;
        for (i, &v) in drive.iter().enumerate() {
            self.input_soa[i * w + col] = v;
            nnz += (v != 0.0) as usize;
        }
        self.input_nnz[col] = nnz;
    }

    /// Advances every lane one time step using the staged input.
    ///
    /// `input_token` names the staged input's *generation* for the
    /// first-stage PSP cache: equal tokens promise bit-identical staged
    /// inputs. Pass `Some(0)` for a static drive, `Some(t % p)` for a
    /// period-`p` periodic drive (each phase gets its own cache slot),
    /// `None` for non-reproducible drives. When
    /// [`psp_cached`](Self::psp_cached) already holds the token, the
    /// staged input is not read at all — the caller may skip staging.
    ///
    /// `spike_counts` is the per-column spike-count matrix for **this
    /// step**, laid out `[layer][column]` with
    /// [`spiking_layers`](Self::spiking_layers) rows; hidden-stage rows
    /// `1..` are incremented for every spike (row 0, the input layer, is
    /// the caller's — the encoder knows its own spike count).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] before the first
    /// [`begin_batch`](Self::begin_batch) or when `spike_counts` has the
    /// wrong length.
    pub fn step(
        &mut self,
        t: u64,
        input_token: Option<u64>,
        spike_counts: &mut [u64],
    ) -> Result<(), SnnError> {
        let w = self.width;
        if w == 0 {
            return Err(SnnError::InvalidConfig(
                "call begin_batch before stepping".into(),
            ));
        }
        if spike_counts.len() != self.spiking_layers() * w {
            return Err(SnnError::InvalidConfig(format!(
                "spike_counts length {} != {} layers × {w} lanes",
                spike_counts.len(),
                self.spiking_layers()
            )));
        }
        let step_t0 = self.profile.is_some().then(Instant::now);
        for (k, layer) in self.template.layers().iter().enumerate() {
            let stage_t0 = self.profile.is_some().then(Instant::now);
            let (done, rest) = self.stages.split_at_mut(k);
            let stage = &mut rest[0];
            let input: &[f32] = if k == 0 {
                &self.input_soa
            } else {
                &done[k - 1].out
            };
            // 1. PSP accumulation; the first stage may serve straight
            // from the per-token cache (skipping the kernel — and, for
            // the caller, the encoder and staging — entirely).
            let token = if k == 0 { input_token } else { None };
            let slot =
                token.and_then(|tok| self.input_psp_cache.iter().position(|s| s.token == tok));
            let (kind, density) = if let Some(si) = slot {
                // 2. Integration.
                integrate(&mut stage.vmem, &self.input_psp_cache[si].psp);
                (KernelKind::Cached, 0.0)
            } else {
                let events = stage_events(k, w, &self.input_nnz, spike_counts);
                let density = accumulate(layer.synapse(), input, &mut stage.psp, w, events)?;
                if let Some(tok) = token {
                    if self.input_psp_cache.len() < MAX_INPUT_PSP_SLOTS {
                        self.input_psp_cache.push(PspSlot {
                            token: tok,
                            psp: stage.psp.clone(),
                        });
                    }
                }
                integrate(&mut stage.vmem, &stage.psp);
                (KernelKind::Dense, density)
            };
            if let Some(bias) = layer.bias() {
                for (vrow, &bb) in stage.vmem.chunks_exact_mut(w).zip(bias) {
                    for v in vrow {
                        *v += bb;
                    }
                }
            }
            // 3–4. Fire, reset, update burst functions, count spikes.
            let counts = &mut spike_counts[(k + 1) * w..(k + 2) * w];
            fire_lanes(
                layer.policy(),
                layer.reset_mode(),
                t,
                &mut stage.vmem,
                &mut stage.g,
                &mut stage.out,
                counts,
                w,
            );
            if let (Some(sink), Some(t0)) = (&self.profile, stage_t0) {
                sink.record_stage(k, kind, density, t0.elapsed().as_nanos() as u64);
            }
        }
        // Output accumulator: integrate, never fire.
        let last_out: &[f32] = match self.stages.last() {
            Some(s) => &s.out,
            None => &self.input_soa,
        };
        let k_out = self.stages.len();
        let out_t0 = self.profile.is_some().then(Instant::now);
        let events = stage_events(k_out, w, &self.input_nnz, spike_counts);
        let density = accumulate(
            self.template.output_synapse(),
            last_out,
            &mut self.out_psp,
            w,
            events,
        )?;
        integrate(&mut self.out_vmem, &self.out_psp);
        if let Some(bias) = self.template.output_bias() {
            for (vrow, &bb) in self.out_vmem.chunks_exact_mut(w).zip(bias) {
                for v in vrow {
                    *v += bb;
                }
            }
        }
        if let Some(sink) = &self.profile {
            if let Some(t0) = out_t0 {
                sink.record_stage(
                    k_out,
                    KernelKind::Dense,
                    density,
                    t0.elapsed().as_nanos() as u64,
                );
            }
            if let Some(t0) = step_t0 {
                sink.record_step(t0.elapsed().as_nanos() as u64);
            }
        }
        Ok(())
    }

    /// One column's output potentials (class scores) as a strided
    /// iterator.
    ///
    /// # Panics
    ///
    /// Panics if `col >= width()`.
    pub fn lane_output_potentials(&self, col: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(col < self.width, "column out of range");
        self.out_vmem.iter().skip(col).step_by(self.width).copied()
    }

    /// Argmax prediction of one column (same tie-breaking as
    /// [`SpikingNetwork::prediction`]).
    pub fn prediction(&self, col: usize) -> usize {
        argmax_last(self.lane_output_potentials(col))
    }

    /// Raw top-2 confidence margin of one column (see
    /// [`crate::StepwiseInference::confidence_margin`]).
    pub fn confidence_margin(&self, col: usize) -> f32 {
        top2_margin(self.lane_output_potentials(col))
    }
}

/// Input events of stage `stage_idx` for this step — the free density
/// probe: the staged-input nonzeros for stage 0, the previous stage's
/// just-written spike row otherwise.
fn stage_events(stage_idx: usize, w: usize, input_nnz: &[usize], spike_counts: &[u64]) -> u64 {
    if stage_idx == 0 {
        input_nnz.iter().map(|&n| n as u64).sum()
    } else {
        spike_counts[stage_idx * w..(stage_idx + 1) * w]
            .iter()
            .sum()
    }
}

/// Zeroes `psp`, runs the dense lockstep kernel into it, and returns
/// the step's input density (`events` per input lane-element) for the
/// profile. The shared body of the hidden-stage loop and the output
/// accumulator in [`BatchedNetwork::step`].
fn accumulate(
    syn: &crate::synapse::Synapse,
    input: &[f32],
    psp: &mut [f32],
    w: usize,
    events: u64,
) -> Result<f64, SnnError> {
    psp.iter_mut().for_each(|p| *p = 0.0);
    syn.accumulate_batch(input, psp, w)?;
    Ok(events as f64 / (syn.input_len() * w) as f64)
}

/// The fire/reset/burst update of one stage across all lanes, batch
/// innermost, reproducing [`crate::SpikingLayer::step`] exactly per
/// lane.
#[allow(clippy::too_many_arguments)]
fn fire_lanes(
    policy: ThresholdPolicy,
    reset: ResetMode,
    t: u64,
    vmem: &mut [f32],
    g: &mut [f32],
    out: &mut [f32],
    counts: &mut [u64],
    width: usize,
) {
    match policy {
        ThresholdPolicy::Fixed { vth } => {
            fire_uniform_threshold(vth, reset, vmem, out, counts, width);
        }
        ThresholdPolicy::Phase { vth, period } => {
            let phase = (t % period as u64) as i32;
            let th = vth * 0.5f32.powi(1 + phase);
            fire_uniform_threshold(th, reset, vmem, out, counts, width);
        }
        ThresholdPolicy::Burst { vth, beta } => {
            for ((vrow, grow), orow) in vmem
                .chunks_exact_mut(width)
                .zip(g.chunks_exact_mut(width))
                .zip(out.chunks_exact_mut(width))
            {
                for l in 0..width {
                    let th = vth * grow[l];
                    let fire = vrow[l] >= th;
                    orow[l] = if fire { th } else { 0.0 };
                    vrow[l] = if fire {
                        match reset {
                            ResetMode::Subtraction => vrow[l] - th,
                            ResetMode::Zero => 0.0,
                        }
                    } else {
                        vrow[l]
                    };
                    // Eq. 8: g ← β·g after a spike, 1 otherwise.
                    grow[l] = if fire { grow[l] * beta } else { 1.0 };
                    counts[l] += fire as u64;
                }
            }
        }
    }
}

/// Fire/reset for policies whose threshold is uniform across neurons
/// and lanes at a given step (fixed and phase).
fn fire_uniform_threshold(
    th: f32,
    reset: ResetMode,
    vmem: &mut [f32],
    out: &mut [f32],
    counts: &mut [u64],
    width: usize,
) {
    for (vrow, orow) in vmem
        .chunks_exact_mut(width)
        .zip(out.chunks_exact_mut(width))
    {
        for l in 0..width {
            let fire = vrow[l] >= th;
            orow[l] = if fire { th } else { 0.0 };
            vrow[l] = if fire {
                match reset {
                    ResetMode::Subtraction => vrow[l] - th,
                    ResetMode::Zero => 0.0,
                }
            } else {
                vrow[l]
            };
            counts[l] += fire as u64;
        }
    }
}

/// Snapshot of a retired lane, taken the moment it left the batch.
#[derive(Debug, Clone)]
struct RetiredLane {
    potentials: Vec<f32>,
}

/// Incremental lockstep inference over a [`BatchedNetwork`]: the batched
/// sibling of [`crate::StepwiseInference`].
///
/// Construction resets the engine, builds one [`InputEncoder`] per lane,
/// and prepares per-lane spike accounting. Each
/// [`advance`](Self::advance) call presents one time step to every live
/// lane; between steps the caller inspects per-lane predictions,
/// margins, and spike counts, and [`retire`](Self::retire)s lanes whose
/// exit condition is met. Retiring snapshots the lane's outputs and
/// compacts its column out of the SoA state: the surviving lanes are
/// unperturbed (bit-exactly), and subsequent steps cost only the
/// reduced width.
///
/// Lane indices are stable: getters always take the *original* lane
/// index, whether the lane is live or retired.
///
/// ```no_run
/// # use bsnn_core::coding::CodingScheme;
/// # use bsnn_core::simulator::EvalConfig;
/// # use bsnn_core::batch::{BatchedNetwork, BatchedStepwiseInference};
/// # fn demo(engine: &mut BatchedNetwork, images: &[&[f32]]) -> Result<(), bsnn_core::SnnError> {
/// let cfg = EvalConfig::new(CodingScheme::recommended(), 256);
/// let mut run = BatchedStepwiseInference::new(engine, images, &cfg)?;
/// while run.advance()? {
///     for lane in 0..run.batch() {
///         if run.is_active(lane) && run.confidence_margin(lane) > 4.0 {
///             run.retire(lane); // anytime early exit, per lane
///         }
///     }
/// }
/// let answers: Vec<usize> = (0..run.batch()).map(|l| run.prediction(l)).collect();
/// # let _ = answers;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchedStepwiseInference<'net> {
    net: &'net mut BatchedNetwork,
    encoders: Vec<InputEncoder>,
    enc_buf: Vec<f32>,
    /// `[layer][lane]` cumulative spike counts by *original* lane index.
    counts: Vec<u64>,
    /// Per-step scratch, `[layer][column]` at the current width.
    step_counts: Vec<u64>,
    /// Steps executed per lane (frozen at retirement).
    lane_steps: Vec<u64>,
    /// Original lane index of each live column, in column order.
    lane_of_col: Vec<usize>,
    /// Live column of each lane (`None` once retired).
    col_of_lane: Vec<Option<usize>>,
    /// Exit snapshots of retired lanes.
    retired: Vec<Option<RetiredLane>>,
    steps: usize,
    t: u64,
    batch: usize,
    /// Lanes that carry caller images; lanes `real_lanes..batch` are
    /// dead padding (see [`new_padded`](Self::new_padded)).
    real_lanes: usize,
    /// Still-live lanes among the real ones — the run ends when this
    /// hits zero, dead padding notwithstanding.
    live_real: usize,
    input_is_spiking: bool,
    /// `Some(p)`: the drive at step `t` is a pure function of `t % p`
    /// (static real coding is the `p = 1` case), enabling the engine's
    /// per-token PSP cache and this wrapper's per-phase spike-count
    /// cache — on a cache hit the encoder, the staging copy, and the
    /// first-stage kernel are all skipped.
    input_period: Option<u64>,
    /// Cached per-(phase, lane) input spike counts (`[phase][lane]`,
    /// original lane indices; empty unless the input is spiking and
    /// periodic).
    phase_n_in: Vec<u64>,
    /// Which rows of `phase_n_in` have been recorded.
    phase_filled: Vec<bool>,
}

impl<'net> BatchedStepwiseInference<'net> {
    /// Starts a lockstep run over `images` (one lane each): validates
    /// `cfg`, resets the engine via [`BatchedNetwork::begin_batch`], and
    /// builds the per-lane input encoders.
    ///
    /// # Errors
    ///
    /// Returns configuration errors (empty batch, batch wider than the
    /// engine, [`RecordLevel::Trains`] — the lockstep engine records
    /// counts only) and per-image size mismatches.
    pub fn new(
        net: &'net mut BatchedNetwork,
        images: &[&[f32]],
        cfg: &EvalConfig,
    ) -> Result<Self, SnnError> {
        Self::build(net, images, cfg, images.len())
    }

    /// [`new`](Self::new), but ragged widths are padded up to the next
    /// fixed lane width (`{2, 4, 8, 16}`, see [`padded_width`]) with
    /// **dead lanes** driven by all-zero images, instead of running the
    /// 3–4×-slower dynamic-width dense path. Dead lanes are pure
    /// ballast: they occupy tail lane slots so the monomorphized
    /// kernels apply, contribute no input events, are excluded from
    /// [`is_done`](Self::is_done) (the run ends when every *real* lane
    /// is retired or the horizon hits), and their results must simply
    /// be ignored — iterate lanes `0..`[`real_lanes`](Self::real_lanes).
    /// Real-lane results are bit-identical to the unpadded run. No
    /// padding happens when the width is already fixed, exceeds 16, or
    /// the padded width would not fit the engine.
    pub fn new_padded(
        net: &'net mut BatchedNetwork,
        images: &[&[f32]],
        cfg: &EvalConfig,
    ) -> Result<Self, SnnError> {
        let n = images.len();
        let target = padded_width(n);
        if target <= n || target > net.max_batch() {
            return Self::build(net, images, cfg, n);
        }
        let zero = vec![0.0f32; net.input_len()];
        let mut padded: Vec<&[f32]> = Vec::with_capacity(target);
        padded.extend_from_slice(images);
        padded.resize(target, zero.as_slice());
        Self::build(net, &padded, cfg, n)
    }

    fn build(
        net: &'net mut BatchedNetwork,
        images: &[&[f32]],
        cfg: &EvalConfig,
        real_lanes: usize,
    ) -> Result<Self, SnnError> {
        cfg.validate()?;
        if matches!(cfg.record, RecordLevel::Trains { .. }) {
            return Err(SnnError::InvalidConfig(
                "batched inference records spike counts only".into(),
            ));
        }
        if images.is_empty() {
            return Err(SnnError::InvalidConfig("empty lockstep batch".into()));
        }
        let batch = images.len();
        for image in images {
            if image.len() != net.input_len() {
                return Err(SnnError::InputSizeMismatch {
                    expected: net.input_len(),
                    actual: image.len(),
                });
            }
        }
        net.begin_batch(batch)?;
        let encoders: Vec<InputEncoder> = images
            .iter()
            .map(|image| InputEncoder::new(cfg.scheme.input, image, cfg.phase_period))
            .collect::<Result<_, _>>()?;
        let input_period = encoders[0]
            .period()
            .filter(|&p| (p as usize) <= MAX_INPUT_PSP_SLOTS)
            .map(u64::from);
        let input_is_spiking = cfg.scheme.input != InputCoding::Real;
        let cache_rows = if input_is_spiking {
            input_period.unwrap_or(0) as usize
        } else {
            0
        };
        let rows = net.spiking_layers();
        Ok(BatchedStepwiseInference {
            enc_buf: vec![0.0; net.input_len()],
            counts: vec![0; rows * batch],
            step_counts: vec![0; rows * batch],
            lane_steps: vec![0; batch],
            lane_of_col: (0..batch).collect(),
            col_of_lane: (0..batch).map(Some).collect(),
            retired: vec![None; batch],
            steps: cfg.steps,
            t: 0,
            batch,
            real_lanes,
            live_real: real_lanes,
            input_is_spiking,
            input_period,
            phase_n_in: vec![0; cache_rows * batch],
            phase_filled: vec![false; cache_rows],
            net,
            encoders,
        })
    }

    /// Lockstep width at construction (number of lanes, live + retired,
    /// **including** any dead padding lanes).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Number of lanes carrying caller images: lanes `0..real_lanes()`
    /// hold results; any further lanes are dead padding (see
    /// [`new_padded`](Self::new_padded)).
    pub fn real_lanes(&self) -> usize {
        self.real_lanes
    }

    /// Number of still-live lanes.
    pub fn live_lanes(&self) -> usize {
        self.lane_of_col.len()
    }

    /// The configured simulation horizon.
    pub fn horizon(&self) -> usize {
        self.steps
    }

    /// Global steps executed so far (every live lane advances together).
    pub fn steps_taken_global(&self) -> usize {
        self.t as usize
    }

    /// Steps a lane executed before it retired (or so far, if live).
    pub fn steps_taken(&self, lane: usize) -> usize {
        self.lane_steps[lane] as usize
    }

    /// Whether the run is over (horizon reached or every real lane
    /// retired — dead padding lanes never hold a run open).
    pub fn is_done(&self) -> bool {
        self.t as usize >= self.steps || self.live_real == 0
    }

    /// Whether a lane is still live.
    pub fn is_active(&self, lane: usize) -> bool {
        self.col_of_lane[lane].is_some()
    }

    /// Retires a lane: snapshots its outputs and compacts its column
    /// out of the batch, shrinking the lockstep width. The surviving
    /// lanes continue bit-exactly as if nothing happened. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()`.
    pub fn retire(&mut self, lane: usize) {
        let Some(col) = self.col_of_lane[lane] else {
            return; // already retired
        };
        self.retired[lane] = Some(RetiredLane {
            potentials: self.net.lane_output_potentials(col).collect(),
        });
        self.net.remove_lane(col);
        self.lane_of_col.remove(col);
        self.col_of_lane[lane] = None;
        if lane < self.real_lanes {
            self.live_real -= 1;
        }
        for c in self.col_of_lane.iter_mut().flatten() {
            if *c > col {
                *c -= 1;
            }
        }
        // (The engine dropped its PSP cache with the column, so the
        // next step restages the drive at the new width.)
    }

    /// Presents one time step to every live lane. Returns `Ok(false)`
    /// without stepping once the horizon is reached or every lane has
    /// retired.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn advance(&mut self) -> Result<bool, SnnError> {
        if self.is_done() {
            return Ok(false);
        }
        let t = self.t;
        let width = self.lane_of_col.len();
        let rows = self.net.spiking_layers();
        let token = self.input_period.map(|p| t % p);
        let cached = token.is_some_and(|tok| self.net.psp_cached(tok));
        if !cached {
            // Encode and stage this step's drive (periodic encoders are
            // pure functions of `t % p`, so re-encoding after a cache
            // invalidation reproduces the identical drive and counts).
            for col in 0..width {
                let lane = self.lane_of_col[col];
                let n_in = self.encoders[lane].step(t, &mut self.enc_buf) as u64;
                self.net.stage_lane_input(col, &self.enc_buf);
                if self.input_is_spiking {
                    self.counts[lane] += n_in;
                    if let Some(tok) = token {
                        self.phase_n_in[tok as usize * self.batch + lane] = n_in;
                    }
                }
            }
            if let Some(tok) = token {
                if self.input_is_spiking {
                    self.phase_filled[tok as usize] = true;
                }
            }
        } else if self.input_is_spiking {
            // Engine serves the PSP from its cache; the per-lane input
            // spike counts come from ours.
            let tok = token.expect("cached implies a token") as usize;
            debug_assert!(self.phase_filled[tok], "hit before any staging");
            for &lane in &self.lane_of_col {
                self.counts[lane] += self.phase_n_in[tok * self.batch + lane];
            }
        }
        let step_counts = &mut self.step_counts[..rows * width];
        step_counts.iter_mut().for_each(|c| *c = 0);
        self.net.step(t, token, step_counts)?;
        // Fold per-column step counts into the per-lane accumulators.
        for row in 1..rows {
            for col in 0..width {
                let lane = self.lane_of_col[col];
                self.counts[row * self.batch + lane] += self.step_counts[row * width + col];
            }
        }
        for &lane in &self.lane_of_col {
            self.lane_steps[lane] += 1;
        }
        self.t += 1;
        Ok(true)
    }

    /// One lane's output potentials, copied out in class order (the
    /// retirement snapshot for retired lanes).
    pub fn output_potentials(&self, lane: usize) -> Vec<f32> {
        match self.col_of_lane[lane] {
            Some(col) => self.net.lane_output_potentials(col).collect(),
            None => self.retired[lane]
                .as_ref()
                .expect("retired lane has a snapshot")
                .potentials
                .clone(),
        }
    }

    /// One lane's argmax prediction.
    pub fn prediction(&self, lane: usize) -> usize {
        match self.col_of_lane[lane] {
            Some(col) => self.net.prediction(col),
            None => argmax_last(
                self.retired[lane]
                    .as_ref()
                    .expect("retired lane has a snapshot")
                    .potentials
                    .iter()
                    .copied(),
            ),
        }
    }

    /// One lane's raw top-2 confidence margin.
    pub fn confidence_margin(&self, lane: usize) -> f32 {
        match self.col_of_lane[lane] {
            Some(col) => self.net.confidence_margin(col),
            None => top2_margin(
                self.retired[lane]
                    .as_ref()
                    .expect("retired lane has a snapshot")
                    .potentials
                    .iter()
                    .copied(),
            ),
        }
    }

    /// One lane's cumulative spikes across all layers (frozen at
    /// retirement).
    pub fn total_spikes(&self, lane: usize) -> u64 {
        self.counts.iter().skip(lane).step_by(self.batch).sum()
    }

    /// One lane's per-layer cumulative spike counts (layer 0 = input),
    /// matching [`crate::SpikeRecord::layer_counts`].
    pub fn layer_counts(&self, lane: usize) -> Vec<u64> {
        self.counts
            .iter()
            .skip(lane)
            .step_by(self.batch)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::{CodingScheme, HiddenCoding};
    use crate::layer::SpikingLayer;
    use crate::synapse::Synapse;
    use bsnn_tensor::Tensor;

    fn identity_synapse(n: usize) -> Synapse {
        let mut w = vec![0.0f32; n * n];
        for i in 0..n {
            w[i * n + i] = 1.0;
        }
        Synapse::Dense {
            weight: Tensor::from_vec(w, &[n, n]).unwrap(),
        }
    }

    fn tiny_network(vth: f32) -> SpikingNetwork {
        let hidden =
            SpikingLayer::new(identity_synapse(2), None, ThresholdPolicy::Fixed { vth }).unwrap();
        SpikingNetwork::new(2, vec![hidden], identity_synapse(2), None).unwrap()
    }

    fn real_rate() -> CodingScheme {
        CodingScheme::new(InputCoding::Real, HiddenCoding::Rate)
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(BatchedNetwork::new(tiny_network(0.5), 0).is_err());
        let mut engine = BatchedNetwork::new(tiny_network(0.5), 2).unwrap();
        assert!(engine.begin_batch(0).is_err());
        assert!(engine.begin_batch(3).is_err());
        assert!(engine.begin_batch(2).is_ok());
        // Stepping needs a correctly sized count matrix.
        assert!(engine.step(0, None, &mut [0u64; 3]).is_err());
        assert!(engine.step(0, None, &mut [0u64; 4]).is_ok());
        // Trains recording is unsupported in lockstep.
        let cfg = EvalConfig::new(real_rate(), 8).with_record(RecordLevel::Trains {
            fraction: 0.5,
            seed: 0,
        });
        let img = [0.5f32, 0.5];
        assert!(BatchedStepwiseInference::new(&mut engine, &[&img], &cfg).is_err());
        // Empty batches and wrong image sizes are rejected.
        let cfg = EvalConfig::new(real_rate(), 8);
        assert!(BatchedStepwiseInference::new(&mut engine, &[], &cfg).is_err());
        let short = [0.5f32];
        assert!(BatchedStepwiseInference::new(&mut engine, &[&short], &cfg).is_err());
    }

    #[test]
    fn step_before_begin_batch_errors() {
        let mut engine = BatchedNetwork::new(tiny_network(0.5), 2).unwrap();
        assert!(engine.step(0, None, &mut []).is_err());
    }

    #[test]
    fn lockstep_lanes_accumulate_independently() {
        let mut engine = BatchedNetwork::new(tiny_network(0.25), 2).unwrap();
        let cfg = EvalConfig::new(real_rate(), 10);
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 1.0];
        let mut run = BatchedStepwiseInference::new(&mut engine, &[&a, &b], &cfg).unwrap();
        while run.advance().unwrap() {}
        assert!(run.is_done());
        assert_eq!(run.steps_taken(0), 10);
        assert_eq!(run.steps_taken(1), 10);
        assert_eq!(run.prediction(0), 0);
        assert_eq!(run.prediction(1), 1);
        assert!(run.total_spikes(0) > 0);
        // Lane 0 only drives neuron 0, lane 1 only neuron 1.
        let p0 = run.output_potentials(0);
        let p1 = run.output_potentials(1);
        assert_eq!(p0[1], 0.0);
        assert_eq!(p1[0], 0.0);
    }

    #[test]
    fn retired_lane_freezes_and_compacts_while_other_continues() {
        let mut engine = BatchedNetwork::new(tiny_network(0.25), 2).unwrap();
        let cfg = EvalConfig::new(real_rate(), 12);
        let img = [0.9f32, 0.1];
        let mut run = BatchedStepwiseInference::new(&mut engine, &[&img, &img], &cfg).unwrap();
        for _ in 0..4 {
            assert!(run.advance().unwrap());
        }
        run.retire(0);
        run.retire(0); // idempotent
        assert!(!run.is_active(0));
        assert_eq!(run.live_lanes(), 1);
        let frozen = run.output_potentials(0);
        let frozen_spikes = run.total_spikes(0);
        while run.advance().unwrap() {}
        assert_eq!(run.output_potentials(0), frozen, "retired lane moved");
        assert_eq!(run.total_spikes(0), frozen_spikes);
        assert_eq!(run.steps_taken(0), 4);
        assert_eq!(run.steps_taken(1), 12);
        assert!(run.output_potentials(1)[0] > frozen[0]);
    }

    #[test]
    fn all_lanes_retired_ends_run() {
        let mut engine = BatchedNetwork::new(tiny_network(0.25), 2).unwrap();
        let cfg = EvalConfig::new(real_rate(), 100);
        let img = [0.5f32, 0.5];
        let mut run = BatchedStepwiseInference::new(&mut engine, &[&img, &img], &cfg).unwrap();
        assert!(run.advance().unwrap());
        run.retire(0);
        run.retire(1);
        assert_eq!(run.live_lanes(), 0);
        assert!(!run.advance().unwrap());
        assert_eq!(run.steps_taken_global(), 1);
    }

    #[test]
    fn repeated_batches_reuse_buffers() {
        // Same engine across batch widths 2 → 1 → 2: state fully resets.
        let mut engine = BatchedNetwork::new(tiny_network(0.25), 2).unwrap();
        let cfg = EvalConfig::new(real_rate(), 6);
        let img = [0.8f32, 0.2];
        let first = {
            let mut run = BatchedStepwiseInference::new(&mut engine, &[&img, &img], &cfg).unwrap();
            while run.advance().unwrap() {}
            run.output_potentials(0)
        };
        {
            let other = [0.1f32, 0.9];
            let mut run = BatchedStepwiseInference::new(&mut engine, &[&other], &cfg).unwrap();
            while run.advance().unwrap() {}
            assert_eq!(run.prediction(0), 1);
        }
        let again = {
            let mut run = BatchedStepwiseInference::new(&mut engine, &[&img, &img], &cfg).unwrap();
            while run.advance().unwrap() {}
            run.output_potentials(0)
        };
        assert_eq!(first, again, "stale state leaked across batches");
    }

    #[test]
    fn padded_width_snaps_to_fixed_lanes() {
        assert_eq!(padded_width(0), 0);
        assert_eq!(padded_width(1), 1);
        assert_eq!(padded_width(2), 2);
        assert_eq!(padded_width(3), 4);
        assert_eq!(padded_width(5), 8);
        assert_eq!(padded_width(8), 8);
        assert_eq!(padded_width(9), 16);
        assert_eq!(padded_width(16), 16);
        assert_eq!(padded_width(17), 17, "beyond 16 there is no fixed kernel");
    }

    #[test]
    fn padded_run_matches_plain_and_ends_on_real_lanes() {
        let cfg = EvalConfig::new(real_rate(), 9);
        let imgs: [[f32; 2]; 3] = [[0.9, 0.1], [0.2, 0.7], [0.5, 0.5]];
        let refs: Vec<&[f32]> = imgs.iter().map(|i| i.as_slice()).collect();
        let mut plain_engine = BatchedNetwork::new(tiny_network(0.25), 4).unwrap();
        let mut plain = BatchedStepwiseInference::new(&mut plain_engine, &refs, &cfg).unwrap();
        while plain.advance().unwrap() {}
        let mut engine = BatchedNetwork::new(tiny_network(0.25), 4).unwrap();
        let mut run = BatchedStepwiseInference::new_padded(&mut engine, &refs, &cfg).unwrap();
        assert_eq!(run.batch(), 4, "3 lanes pad to the next fixed width");
        assert_eq!(run.real_lanes(), 3);
        while run.advance().unwrap() {}
        for lane in 0..run.real_lanes() {
            assert_eq!(run.output_potentials(lane), plain.output_potentials(lane));
            assert_eq!(run.prediction(lane), plain.prediction(lane));
            assert_eq!(run.total_spikes(lane), plain.total_spikes(lane));
        }
        // Retiring every real lane ends the run even though the dead
        // padding lane never retires.
        let mut engine = BatchedNetwork::new(tiny_network(0.25), 4).unwrap();
        let mut run = BatchedStepwiseInference::new_padded(&mut engine, &refs, &cfg).unwrap();
        assert!(run.advance().unwrap());
        run.retire(0);
        run.retire(1);
        run.retire(2);
        assert!(run.is_done());
        assert!(!run.advance().unwrap());
        assert_eq!(run.live_lanes(), 1, "dead lane still live, run over");
        // A width the engine cannot pad (padded width > max_batch) runs
        // unpadded; a fixed width is left alone.
        let mut engine = BatchedNetwork::new(tiny_network(0.25), 3).unwrap();
        let run = BatchedStepwiseInference::new_padded(&mut engine, &refs, &cfg).unwrap();
        assert_eq!(run.batch(), 3);
        let mut engine = BatchedNetwork::new(tiny_network(0.25), 4).unwrap();
        let two: Vec<&[f32]> = refs[..2].to_vec();
        let run = BatchedStepwiseInference::new_padded(&mut engine, &two, &cfg).unwrap();
        assert_eq!(run.batch(), 2);
    }

    #[test]
    fn set_dispatch_is_inert_and_stats_account_every_step() {
        let cfg = EvalConfig::new(real_rate(), 7);
        let imgs: [[f32; 2]; 2] = [[0.9, 0.0], [0.0, 0.6]];
        let refs: Vec<&[f32]> = imgs.iter().map(|i| i.as_slice()).collect();
        let mut pots = Vec::new();
        for dispatch in [
            DispatchPolicy::default(),
            DispatchPolicy {
                packed_thresholds: vec![1.01; 2],
                quant_thresholds: vec![1.01; 2],
                quant_eligible: vec![true; 2],
                ..DispatchPolicy::default()
            },
        ] {
            let mut engine = BatchedNetwork::new(tiny_network(0.25), 2).unwrap();
            let sink = Arc::new(ProfileSink::new(engine.template().layers().len() + 1));
            engine.set_profile_sink(Some(Arc::clone(&sink)));
            engine.set_dispatch(dispatch);
            let mut run = BatchedStepwiseInference::new(&mut engine, &refs, &cfg).unwrap();
            while run.advance().unwrap() {}
            pots.push((0..2).map(|l| run.output_potentials(l)).collect::<Vec<_>>());
            // Every (stage, step) ran the kernel or replayed the cache.
            for st in &sink.snapshot().stages {
                assert_eq!(st.dense_steps + st.cached_steps, 7);
                assert!(st.mean_density >= 0.0 && st.mean_density <= 1.0);
            }
        }
        assert_eq!(pots[0], pots[1], "an ignored policy changed results");
    }

    #[test]
    fn profile_sink_accounts_every_stage_step_and_changes_nothing() {
        let cfg = EvalConfig::new(real_rate(), 7);
        let imgs: [[f32; 2]; 2] = [[0.9, 0.0], [0.0, 0.6]];
        let refs: Vec<&[f32]> = imgs.iter().map(|i| i.as_slice()).collect();
        // Reference run without a sink.
        let mut plain = BatchedNetwork::new(tiny_network(0.25), 2).unwrap();
        let mut run = BatchedStepwiseInference::new(&mut plain, &refs, &cfg).unwrap();
        while run.advance().unwrap() {}
        let expected: Vec<Vec<f32>> = (0..2).map(|l| run.output_potentials(l)).collect();
        // Profiled run: identical results, fully accounted counters.
        let mut engine = BatchedNetwork::new(tiny_network(0.25), 2).unwrap();
        let sink = Arc::new(ProfileSink::new(engine.template().layers().len() + 1));
        engine.set_profile_sink(Some(Arc::clone(&sink)));
        assert!(engine.profile_sink().is_some());
        let mut run = BatchedStepwiseInference::new(&mut engine, &refs, &cfg).unwrap();
        while run.advance().unwrap() {}
        let got: Vec<Vec<f32>> = (0..2).map(|l| run.output_potentials(l)).collect();
        assert_eq!(got, expected, "profiling changed results");
        let snap = sink.snapshot();
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.steps, 7);
        assert_eq!(snap.stages.len(), 2);
        for st in &snap.stages {
            assert_eq!(st.total_steps(), 7, "every (stage, step) accounted");
            assert!(st.mean_density >= 0.0 && st.mean_density <= 1.0);
        }
        // Each step ran the dense kernel or replayed the cache, and the
        // inert counters of the removed kernels stay 0. Real coding's
        // static drive is cached from the second step on.
        assert_eq!(snap.stages[0].dense_steps, 1);
        assert_eq!(snap.stages[0].cached_steps, 6);
        for st in &snap.stages {
            assert_eq!(st.dense_steps + st.cached_steps, snap.steps);
            assert_eq!(st.sparse_steps, 0);
            assert_eq!(st.packed_steps, 0);
            assert_eq!(st.quant_steps, 0);
        }
        sink.reset();
        let zero = sink.snapshot();
        assert_eq!(zero.steps, 0);
        assert_eq!(zero.batches, 0);
        assert!(zero.stages.iter().all(|s| s.total_steps() == 0));
    }

    #[test]
    fn remove_column_compacts_in_place() {
        let mut buf = vec![
            0.0, 1.0, 2.0, // row 0
            3.0, 4.0, 5.0, // row 1
        ];
        remove_column(&mut buf, 3, 1);
        assert_eq!(buf, vec![0.0, 2.0, 3.0, 5.0]);
        // Removing the only column of a width-1 buffer empties it.
        let mut single = vec![7.0, 8.0];
        remove_column(&mut single, 1, 0);
        assert!(single.is_empty());
    }
}
