//! # tiara-gnn
//!
//! A from-scratch graph neural network stack for the TIARA reproduction:
//! dense/sparse matrices, the paper's 2×64 mean-pooling GCN (Section
//! III-B2, eqs. 3–6) on a batched block-diagonal engine, and the Adam
//! optimizer. The same engine runs the edge-blind MLP baseline on graphs
//! collapsed by [`GraphSample::mean_pooled`]. A reverse-mode autodiff tape
//! remains as the readable oracle the engine is tested against
//! ([`Gcn::train_reference`], [`Gcn::predict_proba_reference`]); nothing
//! ships on it.
//!
//! The paper implements this stage on DGL + PyTorch with a Tesla P100; the
//! graph-ML ecosystem being thin in Rust, this crate provides the minimal
//! equivalent executor with the identical architecture and hyper-parameters
//! (see DESIGN.md).
//!
//! ## Example
//!
//! ```
//! use tiara_gnn::{Gcn, GcnConfig, GraphSample, Matrix};
//!
//! let cfg = GcnConfig { input_dim: 4, hidden_dim: 8, num_classes: 2,
//!                       epochs: 30, batch_size: 2, ..GcnConfig::default() };
//! let a = GraphSample::new(Matrix::from_rows(&[&[1.0, 0.0, 0.0, 0.0]]), &[], 0);
//! let b = GraphSample::new(Matrix::from_rows(&[&[0.0, 0.0, 1.0, 0.0]]), &[], 1);
//! let mut gcn = Gcn::new(cfg);
//! gcn.train(&[a.clone(), b.clone()]);
//! assert_eq!(gcn.predict(&a), 0);
//! assert_eq!(gcn.predict(&b), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adam;
mod batch;
mod csr;
pub mod fused;
mod gcn;
mod matrix;
mod source;
mod tape;

pub use adam::Adam;
pub use batch::TrainStats;
pub use csr::Csr;
pub use gcn::{Aggregation, EpochStats, Gcn, GcnConfig, GraphSample};
pub use matrix::{argmax_slice, Matrix, KERNEL_INLINE_WORK};
pub use source::F32Source;
pub use tape::{ParamId, Tape, Var};
