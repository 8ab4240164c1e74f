//! GxM — the light-weight Graph execution Model (Section II-L).
//!
//! "GxM can be seen as a very light-weight sibling of Tensorflow": a
//! topology description is parsed into a Network List, extended with
//! Split nodes, turned into an Execution Task Graph through the
//! pipeline of Figure 3 (NL → ENL → ENG → PETG → UETG → ETG), and the
//! ETG's tasks execute the forward, backward and weight-update passes
//! on top of the `conv` crate's engines plus the non-convolution
//! operators in [`ops`].
//!
//! The public model surface is typed (DESIGN.md §8): a [`ModelSpec`]
//! — built by the fluent [`GraphBuilder`] or parsed from topology
//! text via [`ModelSpec::parse`] — is a *validated* graph, every
//! failure is a structured [`Error`], and trained parameters move
//! through named [`StateDict`]s
//! ([`Network::state_dict`]/[`Network::load_state_dict`]) for the
//! train → save → load → serve round trip.

// The non-conv operators index accumulator tiles by (pixel, lane)
// coordinates like the kernel crates; iterator rewrites would obscure
// the addressing.
#![allow(clippy::needless_range_loop)]

pub mod builder;
pub mod data;
pub mod error;
pub mod model;
pub mod net;
pub mod ops;
pub mod parser;
pub mod pipeline;
pub mod spec;
pub mod state;
pub mod swap;

pub use builder::{ConvOpts, GraphBuilder};
pub use conv::Precision;
pub use error::Error;
pub use model::{IntoModelSpec, ModelSpec};
pub use net::{ExecMode, Network, StepStats};
pub use parser::parse_topology;
pub use spec::NodeSpec;
pub use state::{StateDict, TensorEntry};
pub use swap::HotSwap;
