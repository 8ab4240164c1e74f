//! Machine models and rooflines (paper Section III).
//!
//! The paper evaluates on two testbeds we do not have: dual-socket
//! Skylake-SP 8180 ("SKX") and Knights Mill 7295 ("KNM"). This crate
//! captures their published parameters (core counts, frequencies, SIMD
//! width, per-core L2 bandwidths, peaks — all quoted in Section III)
//! and exposes:
//!
//! * [`MachineModel`] — the constants plus derived peaks,
//! * [`roofline`] — per-core attainable GFLOPS given L2 operational
//!   intensities, used to regenerate the paper's efficiency analysis
//!   (e.g. why 1×1 layers reach ≈55% on KNM but ≈70% on SKX),
//! * [`traffic`] — a documented, simplified L2 traffic model for the
//!   blocked direct convolution,
//! * [`predict`] — per-layer/per-pass efficiency predictions combining
//!   the above with the pass-specific overheads of Sections II-I/II-J,
//! * [`host`] — calibration of the machine we actually run on
//!   (measured FMA peak and stream bandwidth).

pub mod host;
pub mod model;
pub mod predict;
pub mod roofline;
pub mod traffic;

pub use model::MachineModel;
pub use predict::{predicted_efficiency, predicted_int16_speedup, Pass};
pub use roofline::attainable_gflops_core;
pub use traffic::{forward_traffic, forward_traffic_with, register_blocking, ConvTraffic};
