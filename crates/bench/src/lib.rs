//! # mpichgq-bench — experiment harnesses for every table and figure
//!
//! Each experiment is one function `fn x(cfg, &RunOpts) -> RunReport<T>`
//! that regenerates one piece of the paper's evaluation (§5) on the
//! simulated GARNET testbed. The [`figures`] registry renders them as the
//! series/rows the paper reports (the `fig` binary), and the integration
//! tests in the workspace root assert the qualitative shapes. Absolute
//! numbers differ from the paper (its substrate was a physical Cisco/ATM
//! testbed); the shapes — who wins, where the knees fall, the burstiness
//! penalty — are the reproduction targets (see EXPERIMENTS.md).

pub mod bulk;
pub mod experiments;
pub mod figures;
pub mod output;
pub mod par;

pub use experiments::*;
pub use par::{par_grid, par_map};
