//! The GCN classifier of Section III-B2:
//!
//! * `h_v^0 = X_v`                                       (eq. 3)
//! * `h_v^k = ReLU(W^k · mean_{u ∈ N(v) ∪ {v}} h_u^{k-1})` (eq. 4)
//! * `h_G   = Σ_v h_v`                                   (eq. 5)
//! * `ŷ_G   = argmax softmax(W_L · h_G)`                 (eq. 6)
//!
//! with two graph-convolution layers of size 64, trained with Adam
//! (lr = 0.001) and cross-entropy loss, as in the paper.

use crate::adam::Adam;
use crate::batch::{sample_adjacency, TrainStats, Workspace};
use crate::csr::Csr;
use crate::fused;
use crate::matrix::Matrix;
use crate::tape::{ParamId, Tape, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// One graph sample: node features, the directed edge list, and the label.
/// The normalized adjacency is built at batch time according to the model's
/// [`Aggregation`] configuration.
#[derive(Debug, Clone)]
pub struct GraphSample {
    /// `n × input_dim` node features.
    pub features: Matrix,
    /// Directed edges `(from, to)` over `0..n`.
    pub edges: Vec<(u32, u32)>,
    /// Class label.
    pub label: u32,
}

impl GraphSample {
    /// Builds a sample from raw features and an edge list.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range.
    pub fn new(features: Matrix, edges: &[(u32, u32)], label: u32) -> GraphSample {
        let n = features.rows() as u32;
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge ({u}, {v}) out of range for {n} nodes");
        }
        GraphSample { features, edges: edges.to_vec(), label }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.features.rows()
    }

    /// The graph collapsed to one node carrying the mean of the node
    /// features, with no edges and the same label. A GCN over such graphs
    /// is an edge-blind MLP: the mean adjacency of one isolated node is
    /// `[1.0]` and the sum readout of one node is the identity, so two
    /// layers compute `head·ReLU(W2·ReLU(W1·x̄))`. The rows are summed in
    /// order and then divided by `max(n, 1)`; an empty graph pools to zeros.
    pub fn mean_pooled(&self) -> GraphSample {
        let mut pooled = Matrix::zeros(1, self.features.cols());
        let row = pooled.row_mut(0);
        for r in 0..self.num_nodes() {
            for (d, s) in row.iter_mut().zip(self.features.row(r)) {
                *d += s;
            }
        }
        let n = self.num_nodes().max(1) as f32;
        for d in row.iter_mut() {
            *d /= n;
        }
        GraphSample { features: pooled, edges: Vec::new(), label: self.label }
    }
}

/// How node representations are pooled over the in-neighborhood.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Element-wise mean over `N(v) ∪ {v}` — the paper's eq. (4)
    /// (Kipf & Welling style).
    Mean,
    /// Element-wise sum over `N(v) ∪ {v}` — GIN style (Xu et al., the
    /// paper's reference \[24\]); provided for the aggregation ablation.
    Sum,
}

/// Hyper-parameters of the GCN (paper defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct GcnConfig {
    /// Input feature dimension (42 in the paper).
    pub input_dim: usize,
    /// Hidden width of the graph-convolution layers (64).
    pub hidden_dim: usize,
    /// Number of graph-convolution layers (2 in the paper).
    pub num_layers: usize,
    /// Neighborhood pooling (the paper uses mean).
    pub aggregation: Aggregation,
    /// Number of classes (4).
    pub num_classes: usize,
    /// Adam learning rate (0.001).
    pub learning_rate: f32,
    /// Training epochs (the paper uses 300; the eval harness typically runs
    /// fewer on CPU — see EXPERIMENTS.md).
    pub epochs: usize,
    /// Mini-batch size (graphs per step).
    pub batch_size: usize,
    /// RNG seed for initialization and shuffling.
    pub seed: u64,
}

impl Default for GcnConfig {
    fn default() -> GcnConfig {
        GcnConfig {
            input_dim: 42,
            hidden_dim: 64,
            num_layers: 2,
            aggregation: Aggregation::Mean,
            num_classes: 4,
            learning_rate: 1e-3,
            epochs: 300,
            batch_size: 32,
            seed: 0xC60,
        }
    }
}

/// The trained model: the convolution weights plus the linear head.
#[derive(Debug, Clone)]
pub struct Gcn {
    config: GcnConfig,
    convs: Vec<Matrix>,
    head: Matrix,
    /// Perf counters of the most recent training run (not persisted).
    stats: TrainStats,
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss.
    pub loss: f32,
    /// Training accuracy.
    pub accuracy: f32,
}

impl Gcn {
    /// Initializes an untrained model.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_layers` is zero.
    pub fn new(config: GcnConfig) -> Gcn {
        assert!(config.num_layers >= 1, "at least one convolution layer");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut convs = Vec::with_capacity(config.num_layers);
        let mut dim_in = config.input_dim;
        for _ in 0..config.num_layers {
            convs.push(Matrix::xavier(dim_in, config.hidden_dim, &mut rng));
            dim_in = config.hidden_dim;
        }
        let head = Matrix::xavier(config.hidden_dim, config.num_classes, &mut rng);
        Gcn { config, convs, head, stats: TrainStats::default() }
    }

    /// Rebuilds a trained model from its weights (container loading; the
    /// matrices may borrow mapped bytes zero-copy).
    ///
    /// # Panics
    ///
    /// Panics if the layer chain does not match the configuration.
    pub fn from_parts(config: GcnConfig, convs: Vec<Matrix>, head: Matrix) -> Gcn {
        assert_eq!(convs.len(), config.num_layers, "layer count mismatch");
        let mut dim_in = config.input_dim;
        for (k, w) in convs.iter().enumerate() {
            assert_eq!((w.rows(), w.cols()), (dim_in, config.hidden_dim), "conv {k} shape");
            dim_in = config.hidden_dim;
        }
        assert_eq!((head.rows(), head.cols()), (config.hidden_dim, config.num_classes), "head");
        Gcn { config, convs, head, stats: TrainStats::default() }
    }

    /// The convolution weight matrices, in layer order.
    pub fn conv_weights(&self) -> &[Matrix] {
        &self.convs
    }

    /// The classification-head weight matrix.
    pub fn head_weights(&self) -> &Matrix {
        &self.head
    }

    /// Total bytes the weights borrow zero-copy from mapped storage
    /// (0 for a fully owned model) — the "reused-bytes" stat of the
    /// zero-copy acceptance check.
    pub fn mapped_weight_bytes(&self) -> usize {
        self.convs.iter().map(Matrix::shared_bytes).sum::<usize>() + self.head.shared_bytes()
    }

    /// The model configuration.
    pub fn config(&self) -> &GcnConfig {
        &self.config
    }

    /// Builds the batched forward pass on a tape and returns the logits node.
    fn forward(&self, tape: &mut Tape, batch: &[&GraphSample]) -> Var {
        let total_nodes: usize = batch.iter().map(|g| g.num_nodes()).sum();
        let mut features = Matrix::zeros(total_nodes, self.config.input_dim);
        let mut segments = Vec::with_capacity(total_nodes);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut row = 0usize;
        for (gi, g) in batch.iter().enumerate() {
            let base = row as u32;
            edges.extend(g.edges.iter().map(|&(u, v)| (u + base, v + base)));
            for r in 0..g.num_nodes() {
                features.row_mut(row).copy_from_slice(g.features.row(r));
                segments.push(gi as u32);
                row += 1;
            }
        }
        let adj = Arc::new(match self.config.aggregation {
            Aggregation::Mean => Csr::mean_pool_adjacency(total_nodes, &edges),
            Aggregation::Sum => Csr::sum_adjacency(total_nodes, &edges),
        });
        let segments = Arc::new(segments);

        // Each layer: h <- ReLU(Â h W) (eq. 4), then sum readout (eq. 5)
        // and the linear head (eq. 6).
        let mut h = tape.input(features);
        for (k, w) in self.convs.iter().enumerate() {
            let wk = tape.param(ParamId(k), w.clone());
            let agg = tape.spmm(adj.clone(), h);
            let hw = tape.matmul(agg, wk);
            h = tape.relu(hw);
        }
        let head = tape.param(ParamId(self.convs.len()), self.head.clone());
        let hg = tape.segment_sum(h, segments, batch.len());
        tape.matmul(hg, head)
    }

    /// Trains on the samples, returning per-epoch statistics.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or a sample's feature width differs from
    /// the configured `input_dim`.
    pub fn train(&mut self, samples: &[GraphSample]) -> Vec<EpochStats> {
        self.train_with_progress(samples, |_| {})
    }

    /// Trains with a per-epoch callback, through the batched
    /// block-diagonal engine.
    ///
    /// # Panics
    ///
    /// See [`Gcn::train`].
    pub fn train_with_progress(
        &mut self,
        samples: &[GraphSample],
        mut progress: impl FnMut(&EpochStats),
    ) -> Vec<EpochStats> {
        self.check_samples(samples);
        self.train_batched(samples, None, &mut progress).0
    }

    fn check_samples(&self, samples: &[GraphSample]) {
        assert!(!samples.is_empty(), "no training samples");
        for s in samples {
            assert_eq!(s.features.cols(), self.config.input_dim, "feature width mismatch");
        }
    }

    /// Trains through the original per-batch autodiff tape. Produces a
    /// model bitwise identical to [`Gcn::train`]'s (same kernels, same batch
    /// composition, same reduction orders); it exists as the readable
    /// oracle the differential tests hold the batched engine to.
    ///
    /// # Panics
    ///
    /// See [`Gcn::train`].
    #[doc(hidden)]
    pub fn train_reference(&mut self, samples: &[GraphSample]) -> Vec<EpochStats> {
        self.check_samples(samples);
        self.train_tape(samples, None).0
    }

    /// The per-batch tape loop behind [`Gcn::train_reference`]. Mirrors
    /// [`Gcn::train_batched`] step for step, validation checkpoints
    /// included; predictions on the validation set also go through the tape.
    fn train_tape(
        &mut self,
        samples: &[GraphSample],
        validation: Option<&[GraphSample]>,
    ) -> (Vec<EpochStats>, f32) {
        let n_convs = self.convs.len();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xADA);
        let mut opt = Adam::new(self.config.learning_rate);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut stats = Vec::with_capacity(self.config.epochs);
        let mut tstats = TrainStats::default();
        let mut best_acc = -1.0f32;
        let mut best: Option<(Vec<Matrix>, Matrix)> = None;

        for epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0f64;
            let mut correct = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let batch: Vec<&GraphSample> = chunk.iter().map(|&i| &samples[i]).collect();
                let labels: Arc<Vec<u32>> = Arc::new(batch.iter().map(|g| g.label).collect());

                let t0 = Instant::now();
                let mut tape = Tape::new();
                let logits = self.forward(&mut tape, &batch);
                let loss = tape.softmax_cross_entropy(logits, labels.clone());
                loss_sum += f64::from(tape.value(loss).get(0, 0)) * batch.len() as f64;
                let probs = tape.softmax(logits);
                for (r, &y) in labels.iter().enumerate() {
                    if probs.argmax_row(r) == y as usize {
                        correct += 1;
                    }
                }

                let t1 = Instant::now();
                let grads = tape.backward(loss);
                let t2 = Instant::now();
                let mut params: Vec<(ParamId, &mut Matrix)> =
                    self.convs.iter_mut().enumerate().map(|(k, w)| (ParamId(k), w)).collect();
                params.push((ParamId(n_convs), &mut self.head));
                opt.step(&mut params, &grads);
                tstats.forward_secs += (t1 - t0).as_secs_f64();
                tstats.backward_secs += (t2 - t1).as_secs_f64();
                tstats.optimizer_secs += t2.elapsed().as_secs_f64();
                tstats.batches += 1;
            }
            stats.push(EpochStats {
                epoch,
                loss: (loss_sum / samples.len() as f64) as f32,
                accuracy: correct as f32 / samples.len() as f32,
            });

            if let Some(val) = validation {
                let mut labels = val.iter().map(|g| g.label as usize);
                let mut v_correct = 0usize;
                self.infer_tape(val, |probs, rows| {
                    for r in 0..rows {
                        if Some(probs.argmax_row(r)) == labels.next() {
                            v_correct += 1;
                        }
                    }
                });
                let acc = v_correct as f32 / val.len() as f32;
                if acc > best_acc {
                    best_acc = acc;
                    best = Some((self.convs.clone(), self.head.clone()));
                }
            }
        }
        if let Some((convs, head)) = best {
            self.convs = convs;
            self.head = head;
        }
        self.stats = tstats;
        (stats, best_acc)
    }

    /// The batched block-diagonal training loop (see [`crate::batch`]):
    /// per-sample adjacencies are normalized once, every minibatch is packed
    /// into one block-diagonal spmm + fused matmul+ReLU pipeline, and all
    /// intermediates live in a workspace arena reused across epochs.
    ///
    /// With `validation` present, also tracks the best-validation-accuracy
    /// parameters and restores them at the end (the second tuple element is
    /// that best accuracy; `-1.0` when no validation set was given).
    fn train_batched(
        &mut self,
        samples: &[GraphSample],
        validation: Option<&[GraphSample]>,
        progress: &mut impl FnMut(&EpochStats),
    ) -> (Vec<EpochStats>, f32) {
        let n_convs = self.convs.len();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xADA);
        let mut opt = Adam::new(self.config.learning_rate);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut stats = Vec::with_capacity(self.config.epochs);
        let mut tstats = TrainStats::default();
        let mut best_acc = -1.0f32;
        let mut best: Option<(Vec<Matrix>, Matrix)> = None;

        // The cacheable half of every batch adjacency: per-sample
        // normalization happens once, not once per batch per epoch.
        let adjs: Vec<Csr> =
            samples.iter().map(|s| sample_adjacency(s, self.config.aggregation)).collect();
        let mut ws = Workspace::default();
        let mut batch_refs: Vec<&GraphSample> = Vec::with_capacity(self.config.batch_size);
        let mut adj_refs: Vec<&Csr> = Vec::with_capacity(self.config.batch_size);

        for epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0f64;
            let mut correct = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                batch_refs.clear();
                adj_refs.clear();
                for &i in chunk {
                    batch_refs.push(&samples[i]);
                    adj_refs.push(&adjs[i]);
                }

                let t0 = Instant::now();
                ws.pack(&batch_refs, &adj_refs, self.config.input_dim);
                ws.forward(&self.convs, &self.head, chunk.len());
                let loss = fused::softmax_ce_loss(&ws.logits, &ws.labels);
                ws.fused_calls += 1;
                loss_sum += f64::from(loss) * chunk.len() as f64;
                fused::softmax_rows_into(&ws.logits, &mut ws.probs);
                for (r, &y) in ws.labels.iter().enumerate() {
                    if ws.probs.argmax_row(r) == y as usize {
                        correct += 1;
                    }
                }

                let t1 = Instant::now();
                fused::softmax_ce_grad_into(&mut ws.probs, &ws.labels, 1.0 / chunk.len() as f32);
                ws.fused_calls += 1;
                ws.backward(&self.convs, &self.head);

                let t2 = Instant::now();
                opt.begin_step();
                for (k, w) in self.convs.iter_mut().enumerate() {
                    opt.step_param(ParamId(k), w, &ws.grads[k]);
                }
                opt.step_param(ParamId(n_convs), &mut self.head, &ws.grads[n_convs]);
                tstats.forward_secs += (t1 - t0).as_secs_f64();
                tstats.backward_secs += (t2 - t1).as_secs_f64();
                tstats.optimizer_secs += t2.elapsed().as_secs_f64();
                tstats.batches += 1;
            }
            let s = EpochStats {
                epoch,
                loss: (loss_sum / samples.len() as f64) as f32,
                accuracy: correct as f32 / samples.len() as f32,
            };
            progress(&s);
            stats.push(s);

            if let Some(val) = validation {
                let preds = self.predict_batch(val);
                let v_correct = preds.iter().zip(val).filter(|(p, g)| **p == g.label).count();
                let acc = v_correct as f32 / val.len() as f32;
                if acc > best_acc {
                    best_acc = acc;
                    best = Some((self.convs.clone(), self.head.clone()));
                }
            }
        }
        if let Some((convs, head)) = best {
            self.convs = convs;
            self.head = head;
        }
        tstats.fused_kernel_calls = ws.fused_calls;
        tstats.bytes_reused = ws.bytes_reused;
        self.stats = tstats;
        (stats, best_acc)
    }

    /// Perf counters of the most recent [`Gcn::train`] call (zeroed until a
    /// model has been trained in this process; not persisted with the
    /// model).
    pub fn train_stats(&self) -> TrainStats {
        self.stats
    }

    /// Trains with a held-out validation set, keeping the parameters of the
    /// epoch with the best validation accuracy (simple model selection;
    /// useful when the caller can spare a validation split).
    ///
    /// Returns the per-epoch stats and the best validation accuracy.
    ///
    /// # Panics
    ///
    /// Panics if either sample set is empty.
    pub fn train_with_validation(
        &mut self,
        train: &[GraphSample],
        validation: &[GraphSample],
    ) -> (Vec<EpochStats>, f32) {
        assert!(!train.is_empty(), "no training samples");
        assert!(!validation.is_empty(), "no validation samples");
        self.train_batched(train, Some(validation), &mut |_| {})
    }

    /// Predicts the class of one graph.
    pub fn predict(&self, sample: &GraphSample) -> u32 {
        self.predict_batch(std::slice::from_ref(sample))[0]
    }

    /// Predicts the classes of a batch of graphs.
    pub fn predict_batch(&self, samples: &[GraphSample]) -> Vec<u32> {
        let mut out = Vec::with_capacity(samples.len());
        self.infer_chunks(samples, |probs, rows| {
            for r in 0..rows {
                out.push(probs.argmax_row(r) as u32);
            }
        });
        out
    }

    /// Class probabilities for one graph.
    pub fn predict_proba(&self, sample: &GraphSample) -> Vec<f32> {
        self.predict_proba_batch(std::slice::from_ref(sample)).pop().expect("one sample in")
    }

    /// Class probabilities for a batch of graphs, one forward pass per
    /// `batch_size` chunk. Row `i` is bitwise identical to
    /// `predict_proba(&samples[i])` — every kernel is row-local with a fixed
    /// reduction order, so batch composition cannot change any bit.
    pub fn predict_proba_batch(&self, samples: &[GraphSample]) -> Vec<Vec<f32>> {
        let mut out = Vec::with_capacity(samples.len());
        self.infer_chunks(samples, |probs, rows| {
            for r in 0..rows {
                out.push(probs.row(r).to_vec());
            }
        });
        out
    }

    /// Class probabilities for a batch of graphs through the autodiff tape,
    /// one forward pass per `batch_size` chunk: the oracle for
    /// [`Gcn::predict_proba_batch`], which it matches bit for bit.
    #[doc(hidden)]
    pub fn predict_proba_reference(&self, samples: &[GraphSample]) -> Vec<Vec<f32>> {
        let mut out = Vec::with_capacity(samples.len());
        self.infer_tape(samples, |probs, rows| {
            out.extend((0..rows).map(|r| probs.row(r).to_vec()));
        });
        out
    }

    /// [`Gcn::infer_chunks`] through the autodiff tape.
    fn infer_tape(&self, samples: &[GraphSample], mut sink: impl FnMut(&Matrix, usize)) {
        for chunk in samples.chunks(self.config.batch_size.max(1)) {
            let batch: Vec<&GraphSample> = chunk.iter().collect();
            let mut tape = Tape::new();
            let logits = self.forward(&mut tape, &batch);
            sink(&tape.softmax(logits), chunk.len());
        }
    }

    /// Runs the batched forward pass chunk by chunk, handing each chunk's
    /// softmax probabilities (and its row count) to `sink`.
    fn infer_chunks(&self, samples: &[GraphSample], mut sink: impl FnMut(&Matrix, usize)) {
        if samples.is_empty() {
            return;
        }
        let chunk_size = self.config.batch_size.max(1);
        let mut ws = Workspace::default();
        let mut probs = Matrix::zeros(0, 0);
        let mut adjs: Vec<Csr> = Vec::new();
        for chunk in samples.chunks(chunk_size) {
            adjs.clear();
            adjs.extend(chunk.iter().map(|g| sample_adjacency(g, self.config.aggregation)));
            let batch_refs: Vec<&GraphSample> = chunk.iter().collect();
            let adj_refs: Vec<&Csr> = adjs.iter().collect();
            ws.pack(&batch_refs, &adj_refs, self.config.input_dim);
            ws.forward(&self.convs, &self.head, chunk.len());
            fused::softmax_rows_into(&ws.logits, &mut probs);
            sink(&probs, chunk.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two easily separable synthetic graph families:
    /// class 0 = a 3-chain with feature pattern A, class 1 = a 4-star with
    /// feature pattern B.
    fn toy_dataset(n_per_class: usize) -> Vec<GraphSample> {
        let mut out = Vec::new();
        for k in 0..n_per_class {
            let bump = (k % 3) as f32 * 0.1;
            let mut fa = Matrix::zeros(3, 4);
            for r in 0..3 {
                fa.set(r, 0, 1.0 + bump);
                fa.set(r, 1, 0.1);
            }
            out.push(GraphSample::new(fa, &[(0, 1), (1, 2)], 0));
            let mut fb = Matrix::zeros(4, 4);
            for r in 0..4 {
                fb.set(r, 2, 1.0 + bump);
                fb.set(r, 3, 0.2);
            }
            out.push(GraphSample::new(fb, &[(0, 1), (0, 2), (0, 3)], 1));
        }
        out
    }

    fn toy_config(epochs: usize) -> GcnConfig {
        GcnConfig {
            input_dim: 4,
            hidden_dim: 8,
            num_layers: 2,
            aggregation: Aggregation::Mean,
            num_classes: 2,
            learning_rate: 0.01,
            epochs,
            batch_size: 4,
            seed: 3,
        }
    }

    #[test]
    fn learns_a_separable_toy_problem() {
        let data = toy_dataset(8);
        let mut gcn = Gcn::new(toy_config(60));
        let stats = gcn.train(&data);
        let last = stats.last().unwrap();
        assert!(last.accuracy > 0.95, "final accuracy {}", last.accuracy);
        assert!(last.loss < stats[0].loss, "loss decreased");
        // Held-out-ish check: fresh samples from the same generator.
        let test = toy_dataset(2);
        let preds = gcn.predict_batch(&test);
        let correct = preds.iter().zip(test.iter()).filter(|(p, s)| **p == s.label).count();
        assert!(correct >= 3, "correct {correct}/4");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let data = toy_dataset(1);
        let gcn = Gcn::new(toy_config(1));
        let p = gcn.predict_proba(&data[0]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn from_parts_rebuilds_an_identical_model() {
        let data = toy_dataset(2);
        let mut gcn = Gcn::new(toy_config(5));
        gcn.train(&data);
        let back = Gcn::from_parts(
            gcn.config().clone(),
            gcn.conv_weights().to_vec(),
            gcn.head_weights().clone(),
        );
        assert_eq!(gcn.predict_batch(&data), back.predict_batch(&data));
        assert_eq!(gcn.mapped_weight_bytes(), 0, "trained weights are owned");
    }

    #[test]
    #[should_panic(expected = "layer count mismatch")]
    fn from_parts_rejects_wrong_layer_count() {
        let gcn = Gcn::new(toy_config(1));
        let _ = Gcn::from_parts(gcn.config().clone(), Vec::new(), gcn.head_weights().clone());
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let data = toy_dataset(3);
        let mut a = Gcn::new(toy_config(5));
        let mut b = Gcn::new(toy_config(5));
        let sa = a.train(&data);
        let sb = b.train(&data);
        assert_eq!(sa, sb);
        assert_eq!(a.predict_batch(&data), b.predict_batch(&data));
    }

    #[test]
    fn validation_training_keeps_the_best_model() {
        let train = toy_dataset(6);
        let val = toy_dataset(2);
        let mut gcn = Gcn::new(toy_config(40));
        let (stats, best_acc) = gcn.train_with_validation(&train, &val);
        assert_eq!(stats.len(), 40);
        assert!(best_acc > 0.9, "best validation accuracy {best_acc}");
        // The restored weights actually achieve the reported accuracy.
        let preds = gcn.predict_batch(&val);
        let correct = preds.iter().zip(&val).filter(|(p, g)| **p == g.label).count();
        assert_eq!(correct as f32 / val.len() as f32, best_acc);
    }

    #[test]
    fn sum_aggregation_also_learns() {
        let data = toy_dataset(8);
        let cfg = GcnConfig { aggregation: Aggregation::Sum, ..toy_config(60) };
        let mut gcn = Gcn::new(cfg);
        let stats = gcn.train(&data);
        assert!(stats.last().unwrap().accuracy > 0.9, "sum-pooling accuracy");
    }

    #[test]
    fn layer_count_is_configurable() {
        let data = toy_dataset(4);
        for layers in [1usize, 3] {
            let cfg = GcnConfig { num_layers: layers, ..toy_config(20) };
            let mut gcn = Gcn::new(cfg);
            let stats = gcn.train(&data);
            assert!(
                stats.last().unwrap().accuracy > 0.7,
                "{layers}-layer model accuracy {}",
                stats.last().unwrap().accuracy
            );
            assert!(gcn.predict(&data[0]) < 2);
        }
    }

    #[test]
    #[should_panic(expected = "at least one convolution layer")]
    fn zero_layers_is_rejected() {
        let _ = Gcn::new(GcnConfig { num_layers: 0, ..toy_config(1) });
    }

    #[test]
    fn single_node_graph_is_handled() {
        let f = Matrix::from_rows(&[&[1.0, 0.0, 0.0, 0.0]]);
        let g = GraphSample::new(f, &[], 0);
        let gcn = Gcn::new(toy_config(1));
        let p = gcn.predict(&g);
        assert!(p < 2);
    }

    /// Every observable bit of a model's predictions, for differential
    /// comparisons: through the batched engine, or through the tape.
    fn proba_bits(gcn: &Gcn, data: &[GraphSample]) -> Vec<u32> {
        data.iter().flat_map(|s| gcn.predict_proba(s).into_iter().map(f32::to_bits)).collect()
    }

    fn reference_bits(gcn: &Gcn, data: &[GraphSample]) -> Vec<u32> {
        gcn.predict_proba_reference(data).into_iter().flatten().map(f32::to_bits).collect()
    }

    #[test]
    fn batched_training_is_bitwise_identical_to_reference_mode() {
        let data = toy_dataset(7);
        for batch_size in [1usize, 3, 4, 32] {
            let cfg = GcnConfig { batch_size, ..toy_config(8) };
            let mut fast = Gcn::new(cfg.clone());
            let mut refr = Gcn::new(cfg);
            let sf = fast.train(&data);
            let sr = refr.train_reference(&data);
            assert_eq!(sf, sr, "epoch stats diverged at batch_size {batch_size}");
            assert_eq!(
                proba_bits(&fast, &data),
                reference_bits(&refr, &data),
                "probabilities diverged at batch_size {batch_size}"
            );
            assert_eq!(fast.convs.len(), refr.convs.len());
            for (a, b) in fast.convs.iter().zip(&refr.convs) {
                assert_eq!(a, b, "conv weights diverged at batch_size {batch_size}");
            }
            assert_eq!(fast.head, refr.head, "head diverged at batch_size {batch_size}");
        }
    }

    #[test]
    fn batched_validation_training_matches_reference_mode() {
        let train = toy_dataset(6);
        let val = toy_dataset(2);
        let mut fast = Gcn::new(toy_config(12));
        let mut refr = Gcn::new(toy_config(12));
        let (sf, af) = fast.train_with_validation(&train, &val);
        let (sr, ar) = refr.train_tape(&train, Some(&val));
        assert_eq!(sf, sr);
        assert_eq!(af, ar);
        assert_eq!(proba_bits(&fast, &train), reference_bits(&refr, &train));
    }

    #[test]
    fn train_stats_counters_are_populated() {
        let data = toy_dataset(4);
        let mut gcn = Gcn::new(toy_config(3));
        gcn.train(&data);
        let ts = gcn.train_stats();
        assert_eq!(ts.batches, 3 * 2, "8 samples / batch 4 = 2 batches × 3 epochs");
        assert!(ts.fused_kernel_calls > 0);
        assert!(ts.bytes_reused > 0, "arena must warm up after the first batch");
        let line = ts.to_string();
        assert!(line.contains("backward") && line.contains("bytes reused"), "{line}");
        // The tape counts batches but no fused-kernel activity.
        let mut refr = Gcn::new(toy_config(3));
        refr.train_reference(&data);
        assert_eq!(refr.train_stats().batches, 6);
        assert_eq!(refr.train_stats().fused_kernel_calls, 0);
    }

    /// Two classes separable by mean features alone.
    fn feature_separable(n: usize) -> Vec<GraphSample> {
        let mut out = Vec::new();
        for k in 0..n {
            let bump = (k % 3) as f32 * 0.05;
            let mut fa = Matrix::zeros(3, 4);
            for r in 0..3 {
                fa.set(r, 0, 1.0 + bump);
            }
            out.push(GraphSample::new(fa, &[(0, 1)], 0));
            let mut fb = Matrix::zeros(2, 4);
            for r in 0..2 {
                fb.set(r, 2, 1.0 + bump);
            }
            out.push(GraphSample::new(fb, &[], 1));
        }
        out
    }

    #[test]
    fn mean_pooled_is_one_edgeless_node_of_mean_features() {
        let f = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -4.0], &[0.5, 0.0]]);
        let p = GraphSample::new(f, &[(0, 1), (1, 2)], 3).mean_pooled();
        assert_eq!((p.num_nodes(), p.edges.len(), p.label), (1, 0, 3));
        assert_eq!(p.features.row(0), &[(1.0 + 3.0 + 0.5) / 3.0, (2.0 - 4.0 + 0.0) / 3.0]);
        let empty = GraphSample::new(Matrix::zeros(0, 2), &[], 1).mean_pooled();
        assert_eq!(empty.features.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn mean_pooled_learns_feature_separable_classes() {
        let data: Vec<GraphSample> =
            feature_separable(8).iter().map(GraphSample::mean_pooled).collect();
        let mut gcn = Gcn::new(GcnConfig { seed: 5, ..toy_config(60) });
        let stats = gcn.train(&data);
        assert!(stats.last().unwrap().accuracy > 0.95);
    }

    #[test]
    fn mean_pooled_is_blind_to_graph_structure() {
        // Same mean features, different topology: pooled, the two classes
        // are the same input, so even a trained model cannot tell them apart.
        let feats = || {
            let mut f = Matrix::zeros(3, 4);
            for r in 0..3 {
                f.set(r, 0, 1.0);
            }
            f
        };
        let chain = GraphSample::new(feats(), &[(0, 1), (1, 2)], 0);
        let star = GraphSample::new(feats(), &[(0, 1), (0, 2)], 1);
        assert_eq!(chain.mean_pooled().features, star.mean_pooled().features);
        let data: Vec<GraphSample> =
            (0..6).flat_map(|_| [chain.mean_pooled(), star.mean_pooled()]).collect();
        let mut gcn = Gcn::new(GcnConfig { seed: 5, ..toy_config(60) });
        let acc = gcn.train(&data).last().unwrap().accuracy;
        assert!((acc - 0.5).abs() < 0.17, "an edge-blind model must hover at chance, got {acc}");
        assert_eq!(proba_bits(&gcn, &data[..1]), proba_bits(&gcn, &data[1..2]));
    }

    #[test]
    fn predict_proba_batch_rows_match_single_sample_calls() {
        let data = toy_dataset(5);
        let mut gcn = Gcn::new(toy_config(6));
        gcn.train(&data);
        let batched = gcn.predict_proba_batch(&data);
        for (s, row) in data.iter().zip(&batched) {
            let single = gcn.predict_proba(s);
            let a: Vec<u32> = single.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "batched row differs from single-sample predict_proba");
        }
    }
}
