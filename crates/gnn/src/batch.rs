//! The batched block-diagonal training engine: the GCN hot loop without the
//! tape.
//!
//! One minibatch of graphs becomes *one* block-diagonal adjacency
//! ([`Csr::block_diag_into`]) over a vertically stacked feature matrix, so an
//! epoch is a handful of large `spmm` / fused `matmul+ReLU` / `segment_sum`
//! calls instead of hundreds of small tape nodes. All buffers live in a
//! [`Workspace`] arena reused across batches and epochs — after the first
//! (largest) batch of the first epoch, steady-state training allocates
//! nothing, which the [`TrainStats::bytes_reused`] counter makes observable.
//!
//! **Determinism / digest-identity argument.** The engine reuses the exact
//! kernels of the tape path (`matmul_block`, `spmm_rows`, the shared
//! softmax+CE of [`crate::fused`]), composed in the same order the tape
//! replays them, over the same batch composition (the seeded shuffle is
//! taken identically). Block-diagonal stacking of per-sample normalized
//! adjacencies equals the tape's `mean_pool_adjacency` over the
//! offset-merged edge list entry for entry: blocks are disjoint, per-node
//! predecessor sets are sorted/deduped per sample, and the `1/|N∪{v}|`
//! weights are computed from the same counts. Hence a model trained here is
//! bitwise identical to one trained on the tape by
//! [`Gcn::train_reference`](crate::Gcn::train_reference) — a property pinned
//! by the differential suite rather than assumed.

use crate::csr::Csr;
use crate::fused::{matmul_bias_relu_into, relu_backward_row};
use crate::gcn::{Aggregation, GraphSample};
use crate::matrix::Matrix;

/// Performance counters of one training run, the training-side sibling of
/// the slicer's `SliceStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrainStats {
    /// Seconds spent in batch packing + the forward pass.
    pub forward_secs: f64,
    /// Seconds spent in the backward pass.
    pub backward_secs: f64,
    /// Seconds spent in the optimizer step.
    pub optimizer_secs: f64,
    /// Minibatches processed (across all epochs).
    pub batches: u64,
    /// Fused-kernel invocations (matmul+ReLU forward, the gradient producers
    /// with ReLU′ fused in, fused softmax+CE loss/grad).
    pub fused_kernel_calls: u64,
    /// Workspace bytes served from an already-allocated buffer instead of a
    /// fresh allocation. Grows every batch once the arena has warmed up.
    pub bytes_reused: u64,
}

impl TrainStats {
    /// Merges counters from another run (summing).
    pub fn merge(&mut self, other: &TrainStats) {
        self.forward_secs += other.forward_secs;
        self.backward_secs += other.backward_secs;
        self.optimizer_secs += other.optimizer_secs;
        self.batches += other.batches;
        self.fused_kernel_calls += other.fused_kernel_calls;
        self.bytes_reused += other.bytes_reused;
    }
}

impl std::fmt::Display for TrainStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "forward {:.3}s, backward {:.3}s, optimizer {:.3}s, batches {}, \
             fused-kernel calls {}, bytes reused {}",
            self.forward_secs,
            self.backward_secs,
            self.optimizer_secs,
            self.batches,
            self.fused_kernel_calls,
            self.bytes_reused
        )
    }
}

/// The per-sample normalized adjacency under the model's aggregation — the
/// cacheable unit of the batched path. Bitwise equal to the block the tape
/// path would have produced for this sample inside any batch.
pub(crate) fn sample_adjacency(s: &GraphSample, agg: Aggregation) -> Csr {
    match agg {
        Aggregation::Mean => Csr::mean_pool_adjacency(s.num_nodes(), &s.edges),
        Aggregation::Sum => Csr::sum_adjacency(s.num_nodes(), &s.edges),
    }
}

/// The reusable buffer arena of the batched engine. Everything the forward
/// and backward passes write lives here; buffers are resized in place and
/// their backing allocations persist across batches and epochs.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Block-diagonal batch adjacency.
    adj: Csr,
    /// Transpose cache for the parallel backward `t_spmm`.
    adj_t: Csr,
    /// Vertically stacked node features of the batch.
    feats: Matrix,
    /// Graph id per stacked node row.
    segments: Vec<u32>,
    /// Label per graph of the batch.
    pub(crate) labels: Vec<u32>,
    /// Per-layer aggregated inputs `Â h` (kept for the backward pass).
    aggs: Vec<Matrix>,
    /// Per-layer activations `ReLU(Â h W)` (kept for the ReLU mask).
    acts: Vec<Matrix>,
    /// Sum-pooled graph representations.
    hg: Matrix,
    /// Head logits.
    pub(crate) logits: Matrix,
    /// Softmax probabilities; the backward pass turns them into the logits
    /// gradient in place.
    pub(crate) probs: Matrix,
    /// Transposed head weights, rebuilt once per batch for `d_hg`.
    head_t: Matrix,
    /// Transposed conv weights `Wₖᵀ`, rebuilt once per batch for `d_agg`.
    /// Slot 0 stays empty: the input features need no gradient.
    convs_t: Vec<Matrix>,
    /// Gradient w.r.t. the pooled representations.
    d_hg: Matrix,
    /// Gradient w.r.t. per-node activations (ping-ponged across layers).
    d_act: Matrix,
    /// Gradient w.r.t. per-node aggregated inputs.
    d_agg: Matrix,
    /// Parameter gradients, indexed by `ParamId` order (convs then head).
    pub(crate) grads: Vec<Matrix>,
    /// Fused-kernel call counter.
    pub(crate) fused_calls: u64,
    /// Reused-byte counter (see [`TrainStats::bytes_reused`]).
    pub(crate) bytes_reused: u64,
}

/// Counts a matrix resize that will be served from existing capacity.
fn count_mat_reuse(counter: &mut u64, m: &Matrix, rows: usize, cols: usize) {
    if m.capacity() >= rows * cols {
        *counter += (rows * cols * 4) as u64;
    }
}

/// Counts a `Vec<u32>` resize served from existing capacity.
fn count_vec_reuse(counter: &mut u64, cap: usize, need: usize) {
    if cap >= need {
        *counter += (need * 4) as u64;
    }
}

impl Workspace {
    /// Packs a batch: stacks features, builds segment ids and labels, and
    /// assembles the block-diagonal adjacency from the per-sample cache.
    pub(crate) fn pack(&mut self, batch: &[&GraphSample], adjs: &[&Csr], input_dim: usize) {
        let total_nodes: usize = batch.iter().map(|g| g.num_nodes()).sum();
        count_mat_reuse(&mut self.bytes_reused, &self.feats, total_nodes, input_dim);
        count_vec_reuse(&mut self.bytes_reused, self.segments.capacity(), total_nodes);
        count_vec_reuse(&mut self.bytes_reused, self.labels.capacity(), batch.len());
        self.feats.reset(total_nodes, input_dim);
        self.segments.clear();
        self.labels.clear();
        let mut row = 0usize;
        for (gi, g) in batch.iter().enumerate() {
            self.labels.push(g.label);
            for r in 0..g.num_nodes() {
                self.feats.row_mut(row).copy_from_slice(g.features.row(r));
                self.segments.push(gi as u32);
                row += 1;
            }
        }
        self.bytes_reused += Csr::block_diag_into(adjs, &mut self.adj) as u64;
    }

    /// The forward pass over the packed batch: per layer
    /// `h ← ReLU(Â h W)` (fused), then the segment-sum readout and the
    /// linear head into [`Workspace::logits`].
    pub(crate) fn forward(&mut self, convs: &[Matrix], head: &Matrix, num_graphs: usize) {
        let hidden = convs.last().map_or(0, Matrix::cols);
        if self.aggs.len() != convs.len() {
            self.aggs.resize_with(convs.len(), || Matrix::zeros(0, 0));
            self.acts.resize_with(convs.len(), || Matrix::zeros(0, 0));
        }
        let Workspace {
            adj,
            feats,
            segments,
            aggs,
            acts,
            hg,
            logits,
            fused_calls,
            bytes_reused,
            ..
        } = self;
        let n = feats.rows();
        for (k, w) in convs.iter().enumerate() {
            let h: &Matrix = if k == 0 { feats } else { &acts[k - 1] };
            count_mat_reuse(bytes_reused, &aggs[k], n, h.cols());
            adj.spmm_into(h, &mut aggs[k]);
            count_mat_reuse(bytes_reused, &acts[k], n, w.cols());
            matmul_bias_relu_into(&aggs[k], w, None, &mut acts[k]);
            *fused_calls += 1;
        }
        count_mat_reuse(bytes_reused, hg, num_graphs, hidden);
        hg.reset(num_graphs, hidden);
        let last = acts.last().expect("at least one layer");
        for (r, &g) in segments.iter().enumerate() {
            let src = last.row(r);
            let dst = hg.row_mut(g as usize);
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        count_mat_reuse(bytes_reused, logits, num_graphs, head.cols());
        hg.matmul_into(head, logits);
    }

    /// The backward pass. Expects [`Workspace::probs`] to already hold the
    /// logits gradient (see [`crate::fused::softmax_ce_grad_into`]); fills
    /// [`Workspace::grads`] with the parameter gradients in `ParamId` order.
    ///
    /// Mirrors the tape replay step for step, skipping only the gradients
    /// the tape computes for the (constant) input features. Three changes
    /// to the tape's kernels cut the cost and keep every output bit:
    ///
    /// * `A·Wᵀ` runs as `A·(Wᵀ)` through the ikj kernel of
    ///   [`Matrix::matmul_into`], on transposes built once per batch (the
    ///   weights only change at the optimizer step). Per element the terms
    ///   still arrive in ascending `k` from `+0.0`; skipping a zero term is
    ///   exact for finite operands (see [`Matrix::matmul`]).
    /// * The weight gradients `aggsₖᵀ·d_act` split their narrow output
    ///   across the executor's threads ([`Matrix::t_matmul_into`]).
    /// * ReLU′ is applied by the kernel that produces each `d_act` row: the
    ///   segment-sum broadcast for the last layer, the `Âᵀ` gather for the
    ///   inner ones.
    pub(crate) fn backward(&mut self, convs: &[Matrix], head: &Matrix) {
        let n_params = convs.len() + 1;
        if self.grads.len() != n_params {
            self.grads.resize_with(n_params, || Matrix::zeros(0, 0));
            self.convs_t.resize_with(convs.len(), || Matrix::zeros(0, 0));
        }
        let Workspace {
            adj,
            adj_t,
            feats,
            segments,
            aggs,
            acts,
            hg,
            probs,
            head_t,
            convs_t,
            d_hg,
            d_act,
            d_agg,
            grads,
            fused_calls,
            bytes_reused,
            ..
        } = self;
        let n = feats.rows();
        let last = convs.len() - 1;
        count_mat_reuse(bytes_reused, head_t, head.cols(), head.rows());
        head.transpose_into(head_t);
        for k in 1..convs.len() {
            count_mat_reuse(bytes_reused, &convs_t[k], convs[k].cols(), convs[k].rows());
            convs[k].transpose_into(&mut convs_t[k]);
        }
        // Head: d_head = hg^T @ d_logits, d_hg = d_logits @ head^T.
        count_mat_reuse(bytes_reused, &grads[convs.len()], head.rows(), head.cols());
        hg.t_matmul_into(probs, &mut grads[convs.len()]);
        count_mat_reuse(bytes_reused, d_hg, hg.rows(), head.rows());
        probs.matmul_into(head_t, d_hg);
        // Segment-sum backward: broadcast each graph's gradient row to its
        // node rows, masked by the last layer's ReLU′.
        count_mat_reuse(bytes_reused, d_act, n, d_hg.cols());
        d_act.reset(n, d_hg.cols());
        for (r, &g) in segments.iter().enumerate() {
            let dst = d_act.row_mut(r);
            dst.copy_from_slice(d_hg.row(g as usize));
            relu_backward_row(acts[last].row(r), dst);
        }
        *fused_calls += 1;
        for k in (0..convs.len()).rev() {
            count_mat_reuse(bytes_reused, &grads[k], convs[k].rows(), convs[k].cols());
            aggs[k].t_matmul_into(d_act, &mut grads[k]);
            if k > 0 {
                count_mat_reuse(bytes_reused, d_agg, n, convs[k].rows());
                d_act.matmul_into(&convs_t[k], d_agg);
                count_mat_reuse(bytes_reused, d_act, n, convs[k].rows());
                let below = &acts[k - 1];
                adj.t_spmm_post_into(d_agg, d_act, adj_t, |r, row| {
                    relu_backward_row(below.row(r), row);
                });
                *fused_calls += 1;
            }
        }
    }
}
