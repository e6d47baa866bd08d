//! # stca-core
//!
//! The paper's primary contribution: a model-driven approach for choosing
//! short-term cache allocation policies in collocated settings.
//!
//! * [`predictor::Predictor`] — the three-stage pipeline. Stage 1 profiles
//!   come from `stca-profiler`; Stage 2 trains deep forests mapping profile
//!   features to effective cache allocation (and to base service time, the
//!   second quantity Stage 3 needs); Stage 3 converts EA to response-time
//!   distributions with the `stca-queuesim` G/G/k + STAP simulator.
//! * [`explorer::PolicyExplorer`] — model-driven policy search: a 5 x 5
//!   timeout grid per collocated pair (25 settings, as in §5.2), the
//!   SLO-driven matching rule (settings within 5% of each workload's best,
//!   intersected), and the resulting timeout vector.
//! * [`insight`] — the §5.2 analysis: clustering workload conditions by the
//!   deep forest's learned *concepts* reveals the arrival-rate /
//!   service-time / timeout interaction that clustering raw counters does
//!   not.

pub mod explorer;
pub mod insight;
pub mod pipeline;
pub mod predictor;
pub mod serving;

pub use explorer::{ExplorationResult, PolicyExplorer};
pub use predictor::{ModelConfig, Predictor, ResponsePrediction};
pub use serving::ServingPredictor;
