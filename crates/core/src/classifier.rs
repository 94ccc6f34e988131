//! The TIARA type classifier: the paper's GCN wrapped with container-class
//! labels, training, and evaluation. Models persist through the `.tc`
//! container (see [`crate::Tiara::save`]).

use crate::dataset::Dataset;
use crate::error::Error;
use crate::features::FEATURE_DIM;
use crate::metrics::Evaluation;
use std::borrow::Cow;
use tiara_gnn::{Aggregation, EpochStats, Gcn, GcnConfig, GraphSample, TrainStats};
use tiara_ir::ContainerClass;

/// Which model backs the classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper's graph convolutional network.
    Gcn,
    /// A bag-of-instructions MLP that ignores the slice CFG's edges —
    /// the "no graph structure" ablation baseline. It runs on the GCN
    /// engine: every input graph is first collapsed by
    /// [`GraphSample::mean_pooled`], and the model is pinned to two layers
    /// with mean aggregation (`num_layers` and `aggregation` are ignored),
    /// which makes it `head·ReLU(W2·ReLU(W1·x̄))` over the mean node
    /// features `x̄`.
    Mlp,
}

/// Configuration of the classifier; defaults are the paper's
/// (GCN, 2 conv layers of 64, mean pooling, Adam, lr 0.001).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierConfig {
    /// The model family.
    pub model: ModelKind,
    /// Hidden width of the GCN layers.
    pub hidden_dim: usize,
    /// Number of graph-convolution layers.
    pub num_layers: usize,
    /// Neighborhood pooling.
    pub aggregation: Aggregation,
    /// Learning rate.
    pub learning_rate: f32,
    /// Training epochs. The paper uses 300 (on a Tesla P100); the CPU-bound
    /// evaluation harness defaults lower — see EXPERIMENTS.md.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClassifierConfig {
    fn default() -> ClassifierConfig {
        ClassifierConfig {
            model: ModelKind::Gcn,
            hidden_dim: 64,
            num_layers: 2,
            aggregation: Aggregation::Mean,
            learning_rate: 1e-3,
            epochs: 300,
            batch_size: 32,
            seed: 0x0007_1A2A,
        }
    }
}

impl ClassifierConfig {
    fn to_gcn(&self) -> GcnConfig {
        let (num_layers, aggregation) = match self.model {
            ModelKind::Gcn => (self.num_layers, self.aggregation),
            ModelKind::Mlp => (2, Aggregation::Mean),
        };
        GcnConfig {
            input_dim: FEATURE_DIM,
            hidden_dim: self.hidden_dim,
            num_layers,
            aggregation,
            num_classes: ContainerClass::COUNT,
            learning_rate: self.learning_rate,
            epochs: self.epochs,
            batch_size: self.batch_size,
            seed: self.seed,
        }
    }
}

/// A trainable/trained container-type classifier.
#[derive(Debug, Clone)]
pub struct Classifier {
    gcn: Gcn,
    kind: ModelKind,
    trained: bool,
}

impl Classifier {
    /// Creates an untrained classifier.
    pub fn new(config: &ClassifierConfig) -> Classifier {
        Classifier { gcn: Gcn::new(config.to_gcn()), kind: config.model, trained: false }
    }

    /// Whether [`Classifier::train`] (or a variant) has completed on this
    /// classifier. Prediction through the fallible [`crate::Tiara`] API
    /// returns [`Error::Untrained`] while this is `false`.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// The model's inputs for `graphs`: the graphs themselves for the GCN,
    /// their mean-pooled collapses for the edge-blind MLP.
    fn inputs<'a>(&self, graphs: &'a [GraphSample]) -> Cow<'a, [GraphSample]> {
        match self.kind {
            ModelKind::Gcn => Cow::Borrowed(graphs),
            ModelKind::Mlp => Cow::Owned(graphs.iter().map(GraphSample::mean_pooled).collect()),
        }
    }

    /// Trains on a dataset, returning per-epoch statistics.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyDataset`] if `train` has no samples.
    pub fn train(&mut self, train: &Dataset) -> Result<Vec<EpochStats>, Error> {
        self.train_with_progress(train, |_| {})
    }

    /// Trains with a per-epoch callback (for progress reporting), called
    /// as each epoch finishes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyDataset`] if `train` has no samples.
    pub fn train_with_progress(
        &mut self,
        train: &Dataset,
        progress: impl FnMut(&EpochStats),
    ) -> Result<Vec<EpochStats>, Error> {
        if train.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let graphs = train.graphs();
        let stats = self.gcn.train_with_progress(&self.inputs(&graphs), progress);
        self.trained = true;
        Ok(stats)
    }

    /// Trains with a held-out validation dataset, keeping the epoch with the
    /// best validation accuracy for either model kind (see
    /// [`Gcn::train_with_validation`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyDataset`] if either dataset is empty.
    pub fn train_with_validation(
        &mut self,
        train: &Dataset,
        validation: &Dataset,
    ) -> Result<(Vec<EpochStats>, f32), Error> {
        if train.is_empty() || validation.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let (train, validation) = (train.graphs(), validation.graphs());
        let out = self.gcn.train_with_validation(&self.inputs(&train), &self.inputs(&validation));
        self.trained = true;
        Ok(out)
    }

    /// Predicts the class of one slice graph.
    pub fn predict(&self, graph: &GraphSample) -> ContainerClass {
        self.predict_batch(std::slice::from_ref(graph))[0]
    }

    /// Class probabilities for one slice graph, indexed by
    /// [`ContainerClass::index`].
    pub fn predict_proba(&self, graph: &GraphSample) -> Vec<f32> {
        self.gcn.predict_proba(&self.inputs(std::slice::from_ref(graph))[0])
    }

    /// Predicted classes for a batch of slice graphs, one batched forward
    /// pass per `batch_size` chunk.
    pub fn predict_batch(&self, graphs: &[GraphSample]) -> Vec<ContainerClass> {
        let preds = self.gcn.predict_batch(&self.inputs(graphs));
        preds.into_iter().map(|p| ContainerClass::from_index(p as usize)).collect()
    }

    /// Class probabilities for a batch of slice graphs, one batched forward
    /// pass per `batch_size` chunk. Row `i` is bitwise identical to
    /// `predict_proba(&graphs[i])`.
    pub fn predict_proba_batch(&self, graphs: &[GraphSample]) -> Vec<Vec<f32>> {
        self.gcn.predict_proba_batch(&self.inputs(graphs))
    }

    /// Perf counters of the most recent training call, for either model
    /// kind (zeroed for untrained models; not persisted).
    pub fn train_stats(&self) -> TrainStats {
        self.gcn.train_stats()
    }

    /// Which model family this classifier is.
    pub(crate) fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The backing GCN (container persistence reads the weights through
    /// this; for [`ModelKind::Mlp`] it runs on mean-pooled graphs).
    pub(crate) fn gcn(&self) -> &Gcn {
        &self.gcn
    }

    /// Wraps a rebuilt GCN (container loading).
    pub(crate) fn from_gcn(gcn: Gcn, kind: ModelKind, trained: bool) -> Classifier {
        Classifier { gcn, kind, trained }
    }

    /// Total bytes the model weights borrow zero-copy from mapped storage
    /// (0 for a fully owned model).
    pub fn mapped_weight_bytes(&self) -> usize {
        self.gcn.mapped_weight_bytes()
    }

    /// Evaluates on a test dataset.
    pub fn evaluate(&self, test: &Dataset) -> Evaluation {
        let preds = self.predict_batch(&test.graphs());
        Evaluation::from_pairs(test.samples.iter().zip(preds).map(|(s, p)| (s.label, p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Slicer;
    use tiara_synth::{generate, ProjectSpec, TypeCounts};

    fn dataset() -> Dataset {
        let bin = generate(&ProjectSpec {
            name: "t".into(),
            index: 2,
            seed: 21,
            counts: TypeCounts { list: 6, vector: 8, map: 7, primitive: 16, ..Default::default() },
        });
        Dataset::from_binary(&bin.program, &bin.debug, "t", &Slicer::default())
    }

    fn quick_config(epochs: usize) -> ClassifierConfig {
        ClassifierConfig { epochs, batch_size: 8, ..ClassifierConfig::default() }
    }

    #[test]
    fn learns_to_separate_container_classes() {
        let ds = dataset();
        let (train, test) = ds.split(0.8, 3);
        let mut clf = Classifier::new(&quick_config(40));
        let stats = clf.train(&train).unwrap();
        assert!(
            stats.last().unwrap().accuracy > 0.7,
            "train acc {}",
            stats.last().unwrap().accuracy
        );
        let eval = clf.evaluate(&test);
        assert!(eval.accuracy() > 0.5, "test acc {}", eval.accuracy());
    }

    #[test]
    fn validation_training_through_the_classifier() {
        let ds = dataset();
        let (rest, val) = ds.split(0.8, 11);
        let (train, test) = rest.split(0.75, 12);
        let mut clf = Classifier::new(&quick_config(25));
        let (stats, best) = clf.train_with_validation(&train, &val).unwrap();
        assert_eq!(stats.len(), 25);
        assert!(best > 0.0);
        let eval = clf.evaluate(&test);
        assert!(eval.total() > 0);
        assert!(matches!(
            clf.train_with_validation(&Dataset::new(), &val),
            Err(Error::EmptyDataset)
        ));
    }

    #[test]
    fn empty_training_set_is_an_error() {
        let mut clf = Classifier::new(&quick_config(1));
        assert!(matches!(clf.train(&Dataset::new()), Err(Error::EmptyDataset)));
    }

    #[test]
    fn model_round_trips_through_rebuilt_parts() {
        // Rebuild from weights the way the container loader does and demand
        // identical predictions.
        let ds = dataset();
        let mut clf = Classifier::new(&quick_config(3));
        clf.train(&ds).unwrap();
        let gcn = clf.gcn();
        let rebuilt = Classifier::from_gcn(
            Gcn::from_parts(
                gcn.config().clone(),
                gcn.conv_weights().to_vec(),
                gcn.head_weights().clone(),
            ),
            ModelKind::Gcn,
            clf.is_trained(),
        );
        assert!(rebuilt.is_trained());
        for s in ds.samples.iter().take(5) {
            assert_eq!(clf.predict(&s.graph), rebuilt.predict(&s.graph));
        }
    }

    #[test]
    fn trained_flag_flips_on_successful_training_only() {
        let ds = dataset();
        let mut clf = Classifier::new(&quick_config(1));
        assert!(!clf.is_trained());
        assert!(clf.train(&Dataset::new()).is_err());
        assert!(!clf.is_trained(), "failed training must not mark the model trained");
        clf.train(&ds).unwrap();
        assert!(clf.is_trained());
    }

    #[test]
    fn mlp_is_the_two_layer_mean_engine_with_live_progress_and_counters() {
        let ds = dataset();
        let cfg = ClassifierConfig {
            model: ModelKind::Mlp,
            num_layers: 5,
            aggregation: Aggregation::Sum,
            ..quick_config(3)
        };
        let mut clf = Classifier::new(&cfg);
        let c = clf.gcn().config();
        assert_eq!((c.num_layers, c.aggregation), (2, Aggregation::Mean), "layout is pinned");
        let mut seen = Vec::new();
        let stats = clf.train_with_progress(&ds, |s| seen.push(*s)).unwrap();
        assert_eq!(seen, stats, "progress reports every epoch");
        assert!(clf.train_stats().batches > 0 && clf.train_stats().fused_kernel_calls > 0);
        // Edge-blind: a graph and its mean-pooled collapse are the same input.
        let g = &ds.samples[0].graph;
        assert_eq!(clf.predict_proba(g), clf.predict_proba(&g.mean_pooled()));
    }

    #[test]
    fn mlp_validation_training_keeps_the_best_epoch() {
        let ds = dataset();
        let (train, val) = ds.split(0.75, 11);
        let cfg = ClassifierConfig { model: ModelKind::Mlp, ..quick_config(12) };
        let mut clf = Classifier::new(&cfg);
        let (stats, best) = clf.train_with_validation(&train, &val).unwrap();
        assert_eq!(stats.len(), 12);
        let preds = clf.predict_batch(&val.graphs());
        let correct = preds.iter().zip(&val.samples).filter(|(p, s)| **p == s.label).count();
        assert_eq!(correct as f32 / val.len() as f32, best, "the best epoch is restored");
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let ds = dataset();
        let clf = Classifier::new(&quick_config(1));
        let p = clf.predict_proba(&ds.samples[0].graph);
        assert_eq!(p.len(), ContainerClass::COUNT);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }
}
