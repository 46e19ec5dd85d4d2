//! The event vocabulary of the A4NN bus.
//!
//! One [`Event`] enum flows on a single `Topic<Event>`; services select
//! the variants they care about with
//! [`subscribe_filtered`](crate::Topic::subscribe_filtered). The
//! variants mirror the dataflow of the paper's workflow: trainers emit
//! per-epoch fitness upstream, the prediction engine answers with
//! verdicts, and the run-stats aggregator counts everything. Record
//! trails do not ride the bus: the evaluation pipeline assembles them
//! from the trainers' outcomes.

/// A trainer finished one epoch of one model (Algorithm 1's per-epoch
/// fitness hand-off to the engine).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochCompleted {
    /// Globally unique model id within the run.
    pub model_id: u64,
    /// Generation the model belongs to.
    pub generation: usize,
    /// 1-based epoch number.
    pub epoch: u32,
    /// Training accuracy (%) after this epoch.
    pub train_acc: f64,
    /// Validation accuracy (%) — the fitness the engine consumes.
    pub val_acc: f64,
    /// Seconds the epoch took.
    pub duration_s: f64,
}

/// The prediction engine's response to one [`EpochCompleted`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineVerdict {
    /// Model the verdict is for.
    pub model_id: u64,
    /// Epoch the verdict follows.
    pub epoch: u32,
    /// Latest extrapolated fitness at `e_pred`, if a fit succeeded.
    pub prediction: Option<f64>,
    /// `Some(predicted_fitness)` when the analyzer converged and
    /// training should terminate early.
    pub converged: Option<f64>,
    /// Running total of engine wall time for this model, in seconds.
    pub engine_seconds: f64,
    /// Running total of engine interactions for this model.
    pub engine_interactions: u64,
    /// The engine crashed for this model and will answer no further
    /// epochs; stats above are frozen at the crash point. The trainer
    /// must degrade to run-to-completion training.
    pub retired: bool,
}

/// The engine advises terminating one model's training early (§2.2's
/// in-situ early-termination signal).
#[derive(Debug, Clone, PartialEq)]
pub struct TerminationAdvised {
    /// Model to stop training.
    pub model_id: u64,
    /// Epoch at which convergence was detected.
    pub epoch: u32,
    /// Predicted final fitness the NAS should use.
    pub fitness: f64,
}

/// A model's training finished (to completion, early, or failed); the
/// run-stats aggregator counts these.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCompleted {
    /// Model id.
    pub model_id: u64,
    /// Generation the model belongs to.
    pub generation: usize,
}

/// One training attempt of one model died (a trainer panic was caught
/// by the pool). Published *before* the panic resumes so every
/// subscriber sees the failure ahead of any retry's events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingFailed {
    /// Model whose attempt failed.
    pub model_id: u64,
    /// Generation the model belongs to.
    pub generation: usize,
    /// Last epoch the attempt finished before dying (0 = died before
    /// completing any).
    pub epoch_reached: u32,
    /// 1-based attempt number that failed.
    pub attempt: u32,
    /// Whether the retry policy grants another attempt.
    pub will_retry: bool,
}

/// One model's slot in a generation's discrete-event GPU schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSlot {
    /// Model the slot belongs to.
    pub model_id: u64,
    /// Virtual GPU the model trained on.
    pub gpu: usize,
    /// Slot start, seconds from generation start.
    pub start_s: f64,
    /// Slot end, seconds from generation start.
    pub end_s: f64,
}

/// A generation's GPU schedule was computed.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationScheduled {
    /// Generation index.
    pub generation: usize,
    /// One slot per model in the generation.
    pub assignments: Vec<GpuSlot>,
}

/// Everything that flows on the A4NN bus.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A trainer finished an epoch.
    EpochCompleted(EpochCompleted),
    /// The prediction engine answered an epoch.
    EngineVerdict(EngineVerdict),
    /// The engine advised early termination.
    TerminationAdvised(TerminationAdvised),
    /// A model's training finished.
    ModelCompleted(ModelCompleted),
    /// One training attempt of a model died.
    TrainingFailed(TrainingFailed),
    /// A generation's GPU schedule is available.
    GenerationScheduled(GenerationScheduled),
}

impl Event {
    /// The model id the event concerns, when it concerns exactly one.
    pub fn model_id(&self) -> Option<u64> {
        match self {
            Event::EpochCompleted(e) => Some(e.model_id),
            Event::EngineVerdict(e) => Some(e.model_id),
            Event::TerminationAdvised(e) => Some(e.model_id),
            Event::ModelCompleted(e) => Some(e.model_id),
            Event::TrainingFailed(e) => Some(e.model_id),
            Event::GenerationScheduled(_) => None,
        }
    }

    /// Short kind label, for stats and debug output.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::EpochCompleted(_) => "epoch-completed",
            Event::EngineVerdict(_) => "engine-verdict",
            Event::TerminationAdvised(_) => "termination-advised",
            Event::ModelCompleted(_) => "model-completed",
            Event::TrainingFailed(_) => "training-failed",
            Event::GenerationScheduled(_) => "generation-scheduled",
        }
    }
}
