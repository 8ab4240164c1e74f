//! Network topologies of the paper's evaluation: ResNet-50 (Table I)
//! and Inception-v3 (Section III's secondary workload).
//!
//! Two views of each network:
//! * the **kernel view** — the distinct convolution layer shapes used
//!   by the per-layer benchmarks (Figures 4–8),
//! * the **graph view** — a validated [`gxm::ModelSpec`] for
//!   end-to-end training (Figure 9); `ModelSpec::to_text` emits the
//!   canonical GxM topology text.

pub mod inception;
pub mod resnet;

pub use inception::{inception_v3_layers, inception_v3_model, inception_v3_model_sized};
pub use resnet::{resnet50_model, resnet50_table1, TableRow};
