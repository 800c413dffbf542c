//! Request and response types, exit policies, and the response handle.

use crate::error::ServeError;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// When to stop simulating a request — the paper's latency/accuracy
/// trade-off expressed as a per-request knob.
#[derive(Debug, Clone, PartialEq)]
pub enum ExitPolicy {
    /// Run exactly `steps` time steps (the offline-evaluation behaviour).
    Fixed {
        /// Simulation horizon in time steps.
        steps: usize,
    },
    /// Anytime early exit: check the prediction every `check_every`
    /// steps and stop once the *per-step normalized* confidence margin
    /// (top minus runner-up output potential, divided by elapsed steps)
    /// has been at least `margin` with an unchanged prediction for
    /// `patience` consecutive checkpoints. Falls back to `max_steps`.
    ConfidenceMargin {
        /// Minimum normalized margin for a checkpoint to count as stable.
        margin: f32,
        /// Consecutive stable checkpoints required before exiting.
        patience: usize,
        /// Checkpoint spacing in time steps (align with the phase period
        /// for phase-coded inputs so every checkpoint sees a completed
        /// period).
        check_every: usize,
        /// Hard horizon if the margin never stabilizes.
        max_steps: usize,
    },
    /// Energy cap: stop as soon as the cumulative spike count reaches
    /// `max_spikes` (or at `max_steps`, whichever comes first).
    SpikeBudget {
        /// Spike budget across all layers.
        max_spikes: u64,
        /// Hard horizon in time steps.
        max_steps: usize,
    },
}

impl ExitPolicy {
    /// The recommended anytime policy for phase-coded inputs: checkpoint
    /// once per phase period (8 steps), exit after two stable
    /// checkpoints.
    pub fn recommended(max_steps: usize) -> Self {
        ExitPolicy::ConfidenceMargin {
            margin: 0.02,
            patience: 2,
            check_every: 8,
            max_steps,
        }
    }

    /// The hard step horizon of the policy.
    pub fn max_steps(&self) -> usize {
        match *self {
            ExitPolicy::Fixed { steps } => steps,
            ExitPolicy::ConfidenceMargin { max_steps, .. } => max_steps,
            ExitPolicy::SpikeBudget { max_steps, .. } => max_steps,
        }
    }

    /// Validates the policy's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidPolicy`] for zero horizons, zero
    /// patience/checkpoint spacing, or a non-finite or negative margin.
    pub fn validate(&self) -> Result<(), ServeError> {
        let horizon = self.max_steps();
        if horizon == 0 {
            return Err(ServeError::InvalidPolicy(
                "step horizon must be nonzero".into(),
            ));
        }
        match *self {
            ExitPolicy::Fixed { .. } => Ok(()),
            ExitPolicy::ConfidenceMargin {
                margin,
                patience,
                check_every,
                ..
            } => {
                if !margin.is_finite() || margin < 0.0 {
                    return Err(ServeError::InvalidPolicy(format!(
                        "margin {margin} must be finite and nonnegative"
                    )));
                }
                if patience == 0 || check_every == 0 {
                    return Err(ServeError::InvalidPolicy(format!(
                        "patience {patience} and check_every {check_every} must be nonzero"
                    )));
                }
                Ok(())
            }
            ExitPolicy::SpikeBudget { max_spikes, .. } => {
                if max_spikes == 0 {
                    return Err(ServeError::InvalidPolicy(
                        "spike budget must be nonzero".into(),
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Why a request's simulation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// The policy's hard step horizon was reached.
    HorizonReached,
    /// The confidence margin was stable for `patience` checkpoints.
    Converged,
    /// The spike budget was exhausted.
    BudgetExhausted,
}

/// One inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct InferRequest {
    /// Input image (pixels in `[0, 1]`, length = model input size).
    pub image: Vec<f32>,
    /// Registry name of the model to run against.
    pub model: String,
    /// When to stop simulating.
    pub policy: ExitPolicy,
    /// Optional completion deadline. Checked at admission, at dequeue,
    /// and at lockstep-batch formation: an expired request is answered
    /// [`ServeError::DeadlineExceeded`] instead of occupying a batch
    /// lane, and the queue retires near-expiry work first.
    pub deadline: Option<std::time::Instant>,
    /// Whether brownout admission control tightened this request's exit
    /// policy (the flag is echoed on the response so clients can tell a
    /// degraded answer from a full-fidelity one).
    pub degraded: bool,
}

impl InferRequest {
    /// A request against `model` with the given image and policy (no
    /// deadline, not degraded).
    pub fn new(image: Vec<f32>, model: impl Into<String>, policy: ExitPolicy) -> Self {
        InferRequest {
            image,
            model: model.into(),
            policy,
            deadline: None,
            degraded: false,
        }
    }

    /// The same request with a completion deadline attached.
    #[must_use]
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether the deadline (if any) has passed at `now`.
    pub fn deadline_expired(&self, now: std::time::Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

/// The answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// Predicted class.
    pub prediction: usize,
    /// Time steps actually simulated.
    pub steps: usize,
    /// Spikes emitted across all layers.
    pub spikes: u64,
    /// Per-step normalized confidence margin at exit.
    pub margin: f32,
    /// Why the simulation stopped.
    pub exit: ExitReason,
    /// Registry epoch of the model that served the request (lets clients
    /// observe hot-swaps).
    pub model_epoch: u64,
    /// Time spent queued before a worker picked the request up, in µs.
    pub queue_micros: u64,
    /// Worker service time (simulation), in µs.
    pub service_micros: u64,
    /// Size of the micro-batch this request was served in.
    pub batch_size: usize,
    /// Whether the answer was produced under brownout degradation (the
    /// server tightened the exit policy to shed load gracefully).
    pub degraded: bool,
}

/// Result type delivered through a [`ResponseHandle`].
pub type InferResult = Result<InferResponse, ServeError>;

/// A crate-private callback a [`ResponseSlot`] runs once, right after
/// its response is delivered (see [`ResponseHandle::on_ready`]).
pub(crate) type CompletionHook = Arc<dyn Fn() + Send + Sync>;

/// One-shot slot a worker fulfills and a client waits on.
#[derive(Debug, Default)]
pub(crate) struct ResponseSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Default)]
struct SlotState {
    value: Option<InferResult>,
    on_ready: Option<CompletionHook>,
}

impl std::fmt::Debug for SlotState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotState")
            .field("value", &self.value)
            .field("on_ready", &self.on_ready.is_some())
            .finish()
    }
}

impl ResponseSlot {
    pub(crate) fn fulfill(&self, result: InferResult) {
        let mut guard = self.state.lock().expect("response slot poisoned");
        guard.value = Some(result);
        let hook = guard.on_ready.take();
        self.ready.notify_all();
        drop(guard);
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Fulfills only if no response was delivered yet — the drop-guard
    /// path that keeps clients from hanging when a request is discarded
    /// (e.g. a worker panicked mid-batch). Never panics: it runs during
    /// unwinding, where a second panic would abort.
    pub(crate) fn fulfill_if_empty(&self, result: InferResult) {
        let hook = match self.state.lock() {
            Ok(mut guard) if guard.value.is_none() => {
                guard.value = Some(result);
                self.ready.notify_all();
                guard.on_ready.take()
            }
            _ => None,
        };
        if let Some(hook) = hook {
            hook();
        }
    }
}

/// A handle to a submitted request; blocks until the worker pool delivers
/// the response.
#[derive(Debug)]
pub struct ResponseHandle {
    slot: Arc<ResponseSlot>,
}

impl ResponseHandle {
    pub(crate) fn new(slot: Arc<ResponseSlot>) -> Self {
        ResponseHandle { slot }
    }

    /// Runs `hook` once when the response is delivered. A hook installed
    /// after delivery never runs, but [`is_ready`](Self::is_ready) is
    /// already `true` by then: the slot's lock orders the two, so a
    /// caller that installs, then checks, misses no completion.
    pub(crate) fn on_ready(&self, hook: CompletionHook) {
        let mut state = self.slot.state.lock().expect("response slot poisoned");
        if state.value.is_none() {
            state.on_ready = Some(hook);
        }
    }

    /// Whether the response has already been delivered.
    pub fn is_ready(&self) -> bool {
        self.slot
            .state
            .lock()
            .expect("response slot poisoned")
            .value
            .is_some()
    }

    /// Blocks until the response arrives and returns it.
    pub fn wait(self) -> InferResult {
        let mut guard = self.slot.state.lock().expect("response slot poisoned");
        loop {
            if let Some(result) = guard.value.take() {
                return result;
            }
            guard = self.slot.ready.wait(guard).expect("response slot poisoned");
        }
    }

    /// Blocks up to `timeout`; returns the handle back in `Err` if the
    /// response has not arrived so the caller can keep waiting.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` on timeout.
    pub fn wait_timeout(self, timeout: Duration) -> Result<InferResult, ResponseHandle> {
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = self.slot.state.lock().expect("response slot poisoned");
        loop {
            if let Some(result) = guard.value.take() {
                return Ok(result);
            }
            // Condvars wake spuriously; wait against the deadline, not a
            // single timeout window.
            let Some(remaining) = deadline.checked_duration_since(std::time::Instant::now()) else {
                drop(guard);
                return Err(self);
            };
            guard = self
                .slot
                .ready
                .wait_timeout(guard, remaining)
                .expect("response slot poisoned")
                .0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn policy_horizons_and_validation() {
        assert_eq!(ExitPolicy::Fixed { steps: 64 }.max_steps(), 64);
        assert_eq!(ExitPolicy::recommended(128).max_steps(), 128);
        assert!(ExitPolicy::Fixed { steps: 64 }.validate().is_ok());
        assert!(ExitPolicy::Fixed { steps: 0 }.validate().is_err());
        assert!(ExitPolicy::ConfidenceMargin {
            margin: f32::NAN,
            patience: 1,
            check_every: 8,
            max_steps: 64
        }
        .validate()
        .is_err());
        assert!(ExitPolicy::ConfidenceMargin {
            margin: 0.1,
            patience: 0,
            check_every: 8,
            max_steps: 64
        }
        .validate()
        .is_err());
        assert!(ExitPolicy::SpikeBudget {
            max_spikes: 0,
            max_steps: 64
        }
        .validate()
        .is_err());
        assert!(ExitPolicy::recommended(96).validate().is_ok());
    }

    #[test]
    fn response_handle_delivers_once_fulfilled() {
        let slot = Arc::new(ResponseSlot::default());
        let handle = ResponseHandle::new(Arc::clone(&slot));
        assert!(!handle.is_ready());
        let handle = match handle.wait_timeout(Duration::from_millis(5)) {
            Err(h) => h,
            Ok(_) => panic!("nothing was fulfilled yet"),
        };
        slot.fulfill(Err(ServeError::QueueFull));
        assert!(handle.is_ready());
        assert_eq!(handle.wait(), Err(ServeError::QueueFull));
    }

    #[test]
    fn response_handle_wakes_across_threads() {
        let slot = Arc::new(ResponseSlot::default());
        let handle = ResponseHandle::new(Arc::clone(&slot));
        let waiter = std::thread::spawn(move || handle.wait());
        std::thread::sleep(Duration::from_millis(10));
        slot.fulfill(Err(ServeError::ShuttingDown));
        assert_eq!(waiter.join().unwrap(), Err(ServeError::ShuttingDown));
    }

    /// A hook that counts how often it ran.
    fn counting_hook() -> (CompletionHook, Arc<AtomicUsize>) {
        let count = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&count);
        let hook: CompletionHook = Arc::new(move || {
            seen.fetch_add(1, Ordering::SeqCst);
        });
        (hook, count)
    }

    #[test]
    fn completion_hook_installed_before_fulfill_fires_once() {
        let slot = Arc::new(ResponseSlot::default());
        let handle = ResponseHandle::new(Arc::clone(&slot));
        let (hook, count) = counting_hook();
        handle.on_ready(hook);
        assert_eq!(count.load(Ordering::SeqCst), 0);
        slot.fulfill(Err(ServeError::QueueFull));
        assert_eq!(count.load(Ordering::SeqCst), 1);
        // The drop-guard finds the slot full and neither overwrites the
        // response nor runs the hook a second time.
        slot.fulfill_if_empty(Err(ServeError::ShuttingDown));
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(handle.wait(), Err(ServeError::QueueFull));
    }

    #[test]
    fn completion_hook_installed_after_fulfill_never_fires() {
        // The front-end installs the hook after the request is already
        // queued, so a fast worker can win the race. It must then find
        // the response ready when it scans, and the late hook stays
        // silent.
        let slot = Arc::new(ResponseSlot::default());
        let handle = ResponseHandle::new(Arc::clone(&slot));
        slot.fulfill(Err(ServeError::QueueFull));
        let (hook, count) = counting_hook();
        handle.on_ready(hook);
        assert!(handle.is_ready());
        slot.fulfill_if_empty(Err(ServeError::ShuttingDown));
        assert_eq!(count.load(Ordering::SeqCst), 0);
        assert_eq!(handle.wait(), Err(ServeError::QueueFull));
    }

    #[test]
    fn drop_guard_fulfill_fires_the_completion_hook() {
        // A panicking worker leaves only the drop-guard behind; its
        // ERROR reply must wake the front-end like any other.
        let slot = Arc::new(ResponseSlot::default());
        let handle = ResponseHandle::new(Arc::clone(&slot));
        let (hook, count) = counting_hook();
        handle.on_ready(hook);
        slot.fulfill_if_empty(Err(ServeError::Internal("dropped".into())));
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert!(matches!(handle.wait(), Err(ServeError::Internal(_))));
    }
}
