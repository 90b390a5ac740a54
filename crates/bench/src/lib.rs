//! Experiment harness for the 3V reproduction.
//!
//! * [`engines`] — run any of the four engines (3V, Global-2PC,
//!   No-Coordination, Manual-Versioning) over a common workload and return
//!   a uniform [`engines::EngineReport`];
//! * [`table1`] — the scripted replay of the paper's Table 1 / Figure 2
//!   example execution at sites *p*, *q*, *s*;
//! * the `exp_*` binaries in `src/bin/` regenerate every experiment row
//!   (see `EXPERIMENTS.md` at the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod engines;
pub mod table1;
