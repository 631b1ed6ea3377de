#![warn(missing_docs)]

//! # rc-fuzz — differential conformance harness for RC
//!
//! Grammar-directed generation of well-typed RC programs, cross-checked
//! over the allocator matrix with an inference-soundness oracle and an
//! auto-shrinking minimiser.

pub mod campaign;
pub mod gen;
pub mod oracle;
pub mod rng;
pub mod shrink;

pub use campaign::{run_campaign, run_seed, CampaignConfig};
pub use gen::{generate, generate_source, statement_count, GenConfig};
pub use oracle::{check_source, five_configs, CaseReport, Violation};
pub use rng::Rng;
pub use shrink::shrink;
