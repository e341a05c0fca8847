//! Espresso: near-optimal gradient-compression usage strategies.
//!
//! The paper's primary contribution, on top of the substrate crates:
//!
//! * [`decision::gpu`] — **Algorithm 1**: the GPU compression decision
//!   algorithm with its three properties (bubble-based elimination,
//!   size/position prioritization, overhead-aware option selection),
//! * [`decision::offload`] — **Algorithm 2**: provably optimal CPU
//!   offloading via Lemma 1 grouping,
//! * [`oracle`] — the public brute-force differential oracle: exhaustive
//!   search over the pruned option space for small instances, used to
//!   validate near-optimality (the audit layer's ground truth) and to
//!   reproduce the "brute force" rows of Tables 5 and 6,
//! * [`baselines`] — the comparison systems of section 5 (BytePS FP32,
//!   HiPress, HiTopKComm, BytePS-Compress) and the crippled-dimension
//!   mechanisms of Figure 15,
//! * [`upper_bound`] — the section 5.1 Upper Bound (GC with zero
//!   compression time and no compute impact),
//! * [`config`] — the three configuration files of Figure 6,
//! * [`espresso`] — the end-to-end [`Espresso`] front-end: configs in,
//!   near-optimal [`Strategy`] out, with timing telemetry,
//! * [`service`] — the [`DecisionRequest`] → [`Decision`] API shared by
//!   `espresso-cli` and the `espresso-serve` HTTP service, so the two
//!   front-ends cannot drift.

pub mod baselines;
pub mod census;
pub mod config;
pub mod decision;
pub mod error;
pub mod espresso;
pub mod oracle;
pub mod parallel;
pub mod robust;
pub mod service;
pub mod upper_bound;
pub mod warm;

pub use baselines::Baseline;
pub use census::Census;
pub use config::{FileConfig, GcConfig, ModelConfig, SystemConfig};
pub use error::EspressoError;
pub use espresso::{Espresso, PlannerMode, Report};
pub use parallel::{BoundedQueue, EvalPool};
pub use espresso_strategy::Strategy;
pub use robust::{
    replan, replan_priority, replan_with_context, DegradationMonitor, NoiseEnvelope, Replan,
    ReplanContext, RobustSelection, RobustSelector,
};
pub use service::{decide, decide_with_warm, Decision, DecisionRequest, DecisionResponse};
pub use upper_bound::upper_bound_time;
pub use warm::WarmStartCache;

/// Convenient re-exports of the crate's primary types.
pub mod prelude {
    pub use crate::{
        baselines::Baseline,
        census::Census,
        config::{FileConfig, GcConfig, ModelConfig, SystemConfig},
        decision::{gpu, offload},
        error::EspressoError,
        espresso::{Espresso, PlannerMode, Report},
        parallel::{BoundedQueue, EvalPool},
        oracle,
        robust::{
            replan, replan_priority, DegradationMonitor, NoiseEnvelope, Replan, RobustSelection,
            RobustSelector,
        },
        service::{decide, decide_with_warm, Decision, DecisionRequest, DecisionResponse},
        upper_bound::upper_bound_time,
        warm::WarmStartCache,
    };
}
