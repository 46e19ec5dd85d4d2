//! # a4nn-bus — in-situ event bus and streaming services
//!
//! The paper's workflow couples its tasks — concurrent trainers and the
//! PENGUIN prediction engine — in situ, over memory instead of the
//! filesystem (§2.2, built on Wilkins/LowFive in the reference
//! implementation). This crate is that coupling layer as an explicit
//! subsystem:
//!
//! - [`topic`] — a typed MPMC publish–subscribe [`Topic`] over bounded
//!   per-subscriber queues with selectable backpressure ([`Policy`]:
//!   lossless blocking, lossy drop-oldest with exact drop accounting,
//!   or unbounded for audit streams), per-subscriber delivery/lag
//!   counters, and graceful close-and-drain shutdown;
//! - [`events`] — the [`Event`] vocabulary flowing between services:
//!   per-epoch fitness, engine verdicts, termination advice, model
//!   completions, and GPU schedules;
//! - [`services`] — the streaming services: [`PredictionEngineService`]
//!   (per-model PENGUIN engines answering epochs with verdicts) and
//!   [`RunStatsAggregator`] (run-level counters and per-GPU
//!   utilization).
//!
//! The bus carries engine verdicts and run stats only. Record trails
//! are assembled by the evaluation pipeline in `a4nn-core` from the
//! trainers' outcomes, the same way on every transport.
//!
//! Determinism contract: driving a search through the bus produces
//! verdicts identical to the direct in-process call path, because
//! engine state is per-model and verdicts are joined back by
//! `(model_id, epoch)`.

#![warn(clippy::redundant_clone)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod events;
pub mod services;
pub mod topic;

pub use events::{
    EngineVerdict, EpochCompleted, Event, GenerationScheduled, GpuSlot, ModelCompleted,
    TerminationAdvised, TrainingFailed,
};
pub use services::{
    BusRunStats, EngineFaultHook, PredictionEngineService, RunStatsAggregator,
    ENGINE_INBOX_CAPACITY,
};
pub use topic::{
    Policy, PublishError, RecvError, SubscriberStats, Subscription, Topic, TryRecvError,
};
