//! Admission control: explicit load shedding and brownout degradation
//! tied to the runtime's backpressure.
//!
//! [`ServeRuntime::submit`] already refuses work when the bounded queue
//! is full — but a network front-end that forwards `QueueFull` as a
//! generic error (or worse, retries internally) turns overload into
//! client hangs and retry storms. [`AdmissionControl`] makes the
//! shedding decision *before* a request costs anything: it refuses with
//! an explicit [`ShedReason`] when the queue is already deeper than the
//! configured watermark, and maps the runtime's own `QueueFull` to the
//! same signal. Clients see a cheap, unambiguous SHED response they can
//! back off on; admitted requests see the queue at a depth the latency
//! SLO was provisioned for.
//!
//! Between "fine" and "refuse" sits a third state the anytime outputs of
//! burst-coded SNNs make cheap: **Degraded**. Past a first (lower)
//! watermark the controller keeps admitting but tightens each request's
//! [`ExitPolicy`] (capped step horizon, more aggressive confidence
//! margin), trading a little accuracy for a lot of capacity.
//! Degraded answers are flagged on the response so clients can tell
//! them apart; only past the second watermark does the server shed.
//! Degradation never touches kernel results — it only narrows the exit
//! policy, so the bit-equivalence guarantees are unaffected.
//!
//! Admission is also the first of three deadline checkpoints (the others
//! are dequeue and batch formation): a request whose deadline already
//! passed is answered [`ServeError::DeadlineExceeded`] without ever
//! touching the queue.

use crate::error::ServeError;
use crate::obs::SpanKind;
use crate::request::{ExitPolicy, InferRequest, ResponseHandle};
use crate::runtime::ServeRuntime;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// When to refuse work instead of queueing it, and when to degrade it
/// instead of refusing.
#[derive(Debug, Clone, Default)]
pub struct ShedConfig {
    /// Refuse new requests while the queue holds at least this many.
    /// `0` (the default) means "derive from the runtime": 3/4 of the
    /// queue capacity, so a shed fires *before* producers start seeing
    /// raw `QueueFull`.
    pub queue_high_watermark: usize,
    /// Enter [`BrownoutState::Degraded`] while the queue holds at least
    /// this many (must sit below the shed watermark to matter). `0` (the
    /// default) disables degradation.
    pub degrade_watermark: usize,
    /// Step-horizon cap applied to requests admitted while Degraded.
    /// `0` derives the default (32 steps — four phase periods).
    pub degraded_max_steps: usize,
}

/// Multiplier applied to `ConfidenceMargin` margins while Degraded:
/// below 1, early exit demands less confidence.
const DEGRADED_MARGIN_SCALE: f32 = 0.5;

/// The three load states of the brownout controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrownoutState {
    /// Below every watermark: requests are admitted untouched.
    Normal,
    /// Past the degrade watermark: requests are admitted with a
    /// tightened exit policy and flagged degraded.
    Degraded,
    /// Past the shed watermark: requests are refused with SHED.
    Shed,
}

impl fmt::Display for BrownoutState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrownoutState::Normal => write!(f, "normal"),
            BrownoutState::Degraded => write!(f, "degraded"),
            BrownoutState::Shed => write!(f, "shed"),
        }
    }
}

/// The degraded-mode transformation: caps the policy's step horizon at
/// `max_steps` and scales `ConfidenceMargin` margins by `margin_scale`
/// (lower margin → earlier exit). Never alters what a kernel computes —
/// only when the simulation stops reading it.
pub fn degrade_policy(policy: &ExitPolicy, max_steps: usize, margin_scale: f32) -> ExitPolicy {
    let cap = max_steps.max(1);
    match *policy {
        ExitPolicy::Fixed { steps } => ExitPolicy::Fixed {
            steps: steps.min(cap),
        },
        ExitPolicy::ConfidenceMargin {
            margin,
            patience,
            check_every,
            max_steps,
        } => ExitPolicy::ConfidenceMargin {
            margin: margin * margin_scale,
            patience,
            check_every,
            max_steps: max_steps.min(cap),
        },
        ExitPolicy::SpikeBudget {
            max_spikes,
            max_steps,
        } => ExitPolicy::SpikeBudget {
            max_spikes,
            max_steps: max_steps.min(cap),
        },
    }
}

/// Why a request was refused with a SHED response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The queue depth was at or above the admission watermark.
    QueueDepth,
    /// The bounded queue itself refused the push (`QueueFull`).
    QueueFull,
}

impl ShedReason {
    /// Stable one-byte wire encoding (see [`crate::net`]).
    pub fn code(self) -> u8 {
        match self {
            ShedReason::QueueDepth => 0,
            ShedReason::QueueFull => 1,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(ShedReason::QueueDepth),
            1 => Some(ShedReason::QueueFull),
            _ => None,
        }
    }
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::QueueDepth => write!(f, "queue depth over admission watermark"),
            ShedReason::QueueFull => write!(f, "queue full"),
        }
    }
}

/// How an admission attempt failed.
#[derive(Debug)]
pub enum AdmitError {
    /// Load shedding: the runtime is overloaded; the request was *not*
    /// enqueued and the client should back off before retrying.
    Shed(ShedReason),
    /// A non-overload refusal (invalid policy, shutdown, ...).
    Rejected(ServeError),
}

/// Watermark-based admission over a shared [`ServeRuntime`], with the
/// Normal → Degraded → Shed brownout controller in front of the queue.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    runtime: Arc<ServeRuntime>,
    watermark: usize,
    degrade_watermark: usize,
    degraded_max_steps: usize,
}

impl AdmissionControl {
    /// Admission over `runtime` with `cfg`'s watermarks (resolving the
    /// `0` = "3/4 of queue capacity" shed default and the degraded-mode
    /// parameter defaults).
    pub fn new(runtime: Arc<ServeRuntime>, cfg: &ShedConfig) -> Self {
        let capacity = runtime.queue_capacity();
        let watermark = if cfg.queue_high_watermark == 0 {
            (capacity * 3 / 4).max(1)
        } else {
            cfg.queue_high_watermark.min(capacity)
        };
        let degraded_max_steps = if cfg.degraded_max_steps == 0 {
            32
        } else {
            cfg.degraded_max_steps
        };
        AdmissionControl {
            runtime,
            watermark,
            degrade_watermark: cfg.degrade_watermark,
            degraded_max_steps,
        }
    }

    /// The resolved admission watermark (requests are shed while the
    /// queue depth is at or above it).
    pub fn watermark(&self) -> usize {
        self.watermark
    }

    /// The runtime requests are admitted into.
    pub fn runtime(&self) -> &Arc<ServeRuntime> {
        &self.runtime
    }

    /// The brownout state the *next* admission would see: Shed past the
    /// shed watermark, Degraded past the degrade watermark (when one is
    /// configured), Normal otherwise.
    pub fn brownout_state(&self) -> BrownoutState {
        let depth = self.runtime.queue_depth();
        if depth >= self.watermark {
            return BrownoutState::Shed;
        }
        if self.degrade_watermark > 0 && depth >= self.degrade_watermark {
            return BrownoutState::Degraded;
        }
        BrownoutState::Normal
    }

    /// Admits `request` unless the runtime is overloaded.
    ///
    /// An already-expired deadline is answered
    /// [`ServeError::DeadlineExceeded`] (as a rejection) before the
    /// request costs anything. In [`BrownoutState::Degraded`] the
    /// request is admitted with a tightened exit policy (see
    /// [`degrade_policy`]) and its `degraded` flag set so the response
    /// carries the mark. Overload — a queue at or above the shed
    /// watermark, or `QueueFull` from the push itself — returns
    /// [`AdmitError::Shed`] and bumps the shed counter in the runtime's
    /// metrics. Anything else the runtime refuses (invalid policy,
    /// shutdown) comes back as [`AdmitError::Rejected`].
    ///
    /// # Errors
    ///
    /// [`AdmitError::Shed`] under overload, [`AdmitError::Rejected`]
    /// otherwise (including expired deadlines).
    pub fn try_admit(&self, mut request: InferRequest) -> Result<ResponseHandle, AdmitError> {
        if request.deadline_expired(Instant::now()) {
            self.runtime
                .metrics_handle()
                .observe_result(&Err(ServeError::DeadlineExceeded));
            return Err(AdmitError::Rejected(ServeError::DeadlineExceeded));
        }
        match self.brownout_state() {
            BrownoutState::Shed => {
                self.runtime.metrics_handle().observe_shed();
                self.trace_shed(ShedReason::QueueDepth);
                return Err(AdmitError::Shed(ShedReason::QueueDepth));
            }
            BrownoutState::Degraded => {
                request.policy = degrade_policy(
                    &request.policy,
                    self.degraded_max_steps,
                    DEGRADED_MARGIN_SCALE,
                );
                request.degraded = true;
            }
            BrownoutState::Normal => {}
        }
        match self.runtime.submit(request) {
            Ok(handle) => Ok(handle),
            Err(ServeError::QueueFull) => {
                // `submit` already counted the rejection; the shed
                // counter additionally records that the refusal was
                // surfaced as an explicit SHED.
                self.runtime.metrics_handle().observe_shed();
                self.trace_shed(ShedReason::QueueFull);
                Err(AdmitError::Shed(ShedReason::QueueFull))
            }
            Err(e) => Err(AdmitError::Rejected(e)),
        }
    }

    /// Records a sampled shed event on the front-end trace track (tid
    /// 0), tagged with the wire reason code.
    fn trace_shed(&self, reason: ShedReason) {
        let tracer = self.runtime.tracer();
        if let Some(token) = tracer.sample() {
            tracer.instant(SpanKind::Shed, 0, token, reason.code() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use crate::request::ExitPolicy;
    use crate::runtime::ServeConfig;
    use std::time::Duration;

    fn request() -> InferRequest {
        InferRequest::new(vec![0.0; 2], "missing", ExitPolicy::Fixed { steps: 4 })
    }

    fn runtime(queue_capacity: usize) -> Arc<ServeRuntime> {
        // One worker over an empty registry: requests fail fast with
        // UnknownModel, which is fine — these tests exercise admission,
        // not inference.
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity,
            max_batch: 4,
            batch_linger: Duration::ZERO,
            ..ServeConfig::default()
        };
        Arc::new(ServeRuntime::start(cfg, Arc::new(ModelRegistry::new())).unwrap())
    }

    #[test]
    fn watermark_resolution() {
        let rt = runtime(16);
        let derived = AdmissionControl::new(Arc::clone(&rt), &ShedConfig::default());
        assert_eq!(derived.watermark(), 12, "3/4 of capacity");
        let explicit = AdmissionControl::new(
            Arc::clone(&rt),
            &ShedConfig {
                queue_high_watermark: 5,
                ..ShedConfig::default()
            },
        );
        assert_eq!(explicit.watermark(), 5);
        let clamped = AdmissionControl::new(
            Arc::clone(&rt),
            &ShedConfig {
                queue_high_watermark: 1000,
                ..ShedConfig::default()
            },
        );
        assert_eq!(clamped.watermark(), 16, "capped at queue capacity");
    }

    #[test]
    fn non_overload_errors_are_rejections_not_sheds() {
        let rt = runtime(16);
        let admission = AdmissionControl::new(Arc::clone(&rt), &ShedConfig::default());
        let bad_policy = InferRequest::new(vec![0.0], "m", ExitPolicy::Fixed { steps: 0 });
        match admission.try_admit(bad_policy) {
            Err(AdmitError::Rejected(ServeError::InvalidPolicy(_))) => {}
            other => panic!("expected InvalidPolicy rejection, got {other:?}"),
        }
        assert_eq!(rt.metrics().shed, 0);
    }

    #[test]
    fn deep_queue_sheds_before_queue_full() {
        // Watermark 1 over a capacity-4 queue: as soon as one submitted
        // request is observed still queued (the single worker hasn't
        // drained it yet), the next admission attempt must shed on depth
        // — never surface raw QueueFull. Submission is faster than
        // service, so flooding reaches that state quickly.
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 4,
            max_batch: 1,
            batch_linger: Duration::ZERO,
            ..ServeConfig::default()
        };
        let rt = Arc::new(ServeRuntime::start(cfg, Arc::new(ModelRegistry::new())).unwrap());
        let admission = AdmissionControl::new(
            Arc::clone(&rt),
            &ShedConfig {
                queue_high_watermark: 1,
                ..ShedConfig::default()
            },
        );
        // Fill the queue to the watermark, then expect a shed. The
        // worker may drain the first request at any moment, so submit
        // until a depth of >= 1 is observed.
        let mut sheds = 0;
        for _ in 0..1000 {
            match admission.try_admit(request()) {
                Ok(_) => {}
                Err(AdmitError::Shed(ShedReason::QueueDepth)) => {
                    sheds += 1;
                    break;
                }
                Err(other) => panic!("unexpected admission failure: {other:?}"),
            }
        }
        assert!(sheds > 0, "deep queue must shed");
        assert!(rt.metrics().shed >= 1);
    }

    #[test]
    fn degrade_policy_caps_horizons_and_scales_margins() {
        let fixed = degrade_policy(&ExitPolicy::Fixed { steps: 200 }, 32, 0.5);
        assert_eq!(fixed, ExitPolicy::Fixed { steps: 32 });
        // A policy already under the cap is untouched.
        let short = degrade_policy(&ExitPolicy::Fixed { steps: 8 }, 32, 0.5);
        assert_eq!(short, ExitPolicy::Fixed { steps: 8 });
        let margin = degrade_policy(&ExitPolicy::recommended(128), 32, 0.5);
        assert_eq!(
            margin,
            ExitPolicy::ConfidenceMargin {
                margin: 0.01,
                patience: 2,
                check_every: 8,
                max_steps: 32
            }
        );
        let budget = degrade_policy(
            &ExitPolicy::SpikeBudget {
                max_spikes: 500,
                max_steps: 96,
            },
            32,
            0.5,
        );
        assert_eq!(
            budget,
            ExitPolicy::SpikeBudget {
                max_spikes: 500,
                max_steps: 32
            }
        );
        // A zero cap still yields a valid (one-step) policy.
        assert_eq!(
            degrade_policy(&ExitPolicy::Fixed { steps: 9 }, 0, 0.5),
            ExitPolicy::Fixed { steps: 1 }
        );
    }

    #[test]
    fn expired_deadline_is_rejected_at_admission() {
        let rt = runtime(16);
        let admission = AdmissionControl::new(Arc::clone(&rt), &ShedConfig::default());
        let past = std::time::Instant::now() - Duration::from_millis(5);
        match admission.try_admit(request().with_deadline(past)) {
            Err(AdmitError::Rejected(ServeError::DeadlineExceeded)) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let snap = rt.metrics();
        assert_eq!(snap.deadline_exceeded, 1);
        assert_eq!(snap.failed, 0, "an expired deadline is not a failure");
        assert_eq!(snap.shed, 0);
    }

    #[test]
    fn brownout_degrades_between_the_watermarks() {
        // degrade watermark 1, shed watermark 3, a single slow-ish
        // worker: flood until a request is admitted while the queue is
        // non-empty — it must come back degraded, with a tightened
        // policy observable through the response's step count.
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 8,
            max_batch: 1,
            batch_linger: Duration::ZERO,
            ..ServeConfig::default()
        };
        let rt = Arc::new(ServeRuntime::start(cfg, Arc::new(ModelRegistry::new())).unwrap());
        let admission = AdmissionControl::new(
            Arc::clone(&rt),
            &ShedConfig {
                queue_high_watermark: 3,
                degrade_watermark: 1,
                ..ShedConfig::default()
            },
        );
        assert_eq!(admission.brownout_state(), BrownoutState::Normal);
        // Depth 0 → Normal admission; subsequent admissions with the
        // queue non-empty must degrade (flood until we catch one).
        let mut handles = Vec::new();
        let mut saw_degraded = false;
        for _ in 0..1000 {
            if rt.queue_depth() >= 1 && rt.queue_depth() < 3 {
                assert_eq!(admission.brownout_state(), BrownoutState::Degraded);
                saw_degraded = true;
                break;
            }
            match admission.try_admit(request()) {
                Ok(h) => handles.push(h),
                Err(AdmitError::Shed(_)) => {}
                Err(other) => panic!("unexpected admission failure: {other:?}"),
            }
        }
        assert!(saw_degraded, "never observed the degraded band");
        drop(handles);
    }
}
