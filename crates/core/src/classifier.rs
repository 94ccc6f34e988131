//! The TIARA type classifier: the paper's GCN wrapped with container-class
//! labels, training, and evaluation. Models persist through the `.tc`
//! container (see [`crate::Tiara::save`]).

use crate::dataset::Dataset;
use crate::error::Error;
use crate::features::FEATURE_DIM;
use crate::metrics::Evaluation;
use tiara_gnn::{EpochStats, Gcn, GcnConfig, GraphSample, Mlp, MlpConfig, TrainStats};
use tiara_ir::ContainerClass;

/// Which model backs the classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper's graph convolutional network.
    Gcn,
    /// A bag-of-instructions MLP that ignores the slice CFG's edges —
    /// the "no graph structure" ablation baseline.
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
    pub aggregation: tiara_gnn::Aggregation,
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
            aggregation: tiara_gnn::Aggregation::Mean,
            learning_rate: 1e-3,
            epochs: 300,
            batch_size: 32,
            seed: 0x0007_1A2A,
        }
    }
}

impl ClassifierConfig {
    fn to_mlp(&self) -> MlpConfig {
        MlpConfig {
            input_dim: FEATURE_DIM,
            hidden_dim: self.hidden_dim,
            num_classes: ContainerClass::COUNT,
            learning_rate: self.learning_rate,
            epochs: self.epochs,
            batch_size: self.batch_size,
            seed: self.seed,
        }
    }

    fn to_gcn(&self) -> GcnConfig {
        GcnConfig {
            input_dim: FEATURE_DIM,
            hidden_dim: self.hidden_dim,
            num_layers: self.num_layers,
            aggregation: self.aggregation,
            num_classes: ContainerClass::COUNT,
            learning_rate: self.learning_rate,
            epochs: self.epochs,
            batch_size: self.batch_size,
            seed: self.seed,
        }
    }
}

/// The model behind a classifier.
#[derive(Debug, Clone)]
enum Model {
    Gcn(Gcn),
    Mlp(Mlp),
}

/// A trainable/trained container-type classifier.
#[derive(Debug, Clone)]
pub struct Classifier {
    model: Model,
    trained: bool,
}

impl Classifier {
    /// Creates an untrained classifier.
    pub fn new(config: &ClassifierConfig) -> Classifier {
        let model = match config.model {
            ModelKind::Gcn => Model::Gcn(Gcn::new(config.to_gcn())),
            ModelKind::Mlp => Model::Mlp(Mlp::new(config.to_mlp())),
        };
        Classifier { model, trained: false }
    }

    /// Whether [`Classifier::train`] (or a variant) has completed on this
    /// classifier. Prediction through the fallible [`crate::Tiara`] API
    /// returns [`Error::Untrained`] while this is `false`.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Trains on a dataset, returning per-epoch statistics.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyDataset`] if `train` has no samples.
    pub fn train(&mut self, train: &Dataset) -> Result<Vec<EpochStats>, Error> {
        self.train_with_progress(train, |_| {})
    }

    /// Trains with a per-epoch callback (for progress reporting).
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
        let stats = match &mut self.model {
            Model::Gcn(g) => g.train_with_progress(&train.graphs(), progress),
            Model::Mlp(m) => {
                let stats = m.train(&train.graphs());
                let mut progress = progress;
                for s in &stats {
                    progress(s);
                }
                stats
            }
        };
        self.trained = true;
        Ok(stats)
    }

    /// Trains with a held-out validation dataset, keeping the epoch with the
    /// best validation accuracy (see [`Gcn::train_with_validation`]).
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
        let out = match &mut self.model {
            Model::Gcn(g) => g.train_with_validation(&train.graphs(), &validation.graphs()),
            Model::Mlp(m) => {
                // The MLP baseline trains straight through; validation
                // accuracy is reported for the final weights.
                let stats = m.train(&train.graphs());
                let preds = m.predict_batch(&validation.graphs());
                let correct = preds
                    .iter()
                    .zip(&validation.samples)
                    .filter(|(p, s)| **p as usize == s.label.index())
                    .count();
                (stats, correct as f32 / validation.len() as f32)
            }
        };
        self.trained = true;
        Ok(out)
    }

    /// Predicts the class of one slice graph.
    pub fn predict(&self, graph: &GraphSample) -> ContainerClass {
        let idx = match &self.model {
            Model::Gcn(g) => g.predict(graph),
            Model::Mlp(m) => m.predict(graph),
        };
        ContainerClass::from_index(idx as usize)
    }

    /// Class probabilities for one slice graph, indexed by
    /// [`ContainerClass::index`].
    pub fn predict_proba(&self, graph: &GraphSample) -> Vec<f32> {
        match &self.model {
            Model::Gcn(g) => g.predict_proba(graph),
            Model::Mlp(m) => m.predict_proba(graph),
        }
    }

    /// Predicted classes for a batch of slice graphs, one batched forward
    /// pass per `batch_size` chunk.
    pub fn predict_batch(&self, graphs: &[GraphSample]) -> Vec<ContainerClass> {
        let preds = match &self.model {
            Model::Gcn(g) => g.predict_batch(graphs),
            Model::Mlp(m) => m.predict_batch(graphs),
        };
        preds.into_iter().map(|p| ContainerClass::from_index(p as usize)).collect()
    }

    /// Class probabilities for a batch of slice graphs, one batched forward
    /// pass per `batch_size` chunk. Row `i` is bitwise identical to
    /// `predict_proba(&graphs[i])`.
    pub fn predict_proba_batch(&self, graphs: &[GraphSample]) -> Vec<Vec<f32>> {
        match &self.model {
            Model::Gcn(g) => g.predict_proba_batch(graphs),
            Model::Mlp(m) => m.predict_proba_batch(graphs),
        }
    }

    /// Perf counters of the most recent training call (zeroed for the MLP
    /// baseline and untrained models; not persisted).
    pub fn train_stats(&self) -> TrainStats {
        match &self.model {
            Model::Gcn(g) => g.train_stats(),
            Model::Mlp(_) => TrainStats::default(),
        }
    }

    /// The backing GCN, when this classifier is GCN-based (container
    /// persistence reads the weights through this).
    pub(crate) fn gcn(&self) -> Option<&Gcn> {
        match &self.model {
            Model::Gcn(g) => Some(g),
            Model::Mlp(_) => None,
        }
    }

    /// The backing MLP, when this classifier is the ablation baseline.
    pub(crate) fn mlp(&self) -> Option<&Mlp> {
        match &self.model {
            Model::Gcn(_) => None,
            Model::Mlp(m) => Some(m),
        }
    }

    /// Wraps a rebuilt GCN (container loading).
    pub(crate) fn from_gcn(gcn: Gcn, trained: bool) -> Classifier {
        Classifier { model: Model::Gcn(gcn), trained }
    }

    /// Wraps a rebuilt MLP (container loading).
    pub(crate) fn from_mlp(mlp: Mlp, trained: bool) -> Classifier {
        Classifier { model: Model::Mlp(mlp), trained }
    }

    /// Total bytes the model weights borrow zero-copy from mapped storage
    /// (0 for a fully owned model).
    pub fn mapped_weight_bytes(&self) -> usize {
        match &self.model {
            Model::Gcn(g) => g.mapped_weight_bytes(),
            Model::Mlp(m) => m.mapped_weight_bytes(),
        }
    }

    /// Evaluates on a test dataset.
    pub fn evaluate(&self, test: &Dataset) -> Evaluation {
        let graphs = test.graphs();
        let preds = match &self.model {
            Model::Gcn(g) => g.predict_batch(&graphs),
            Model::Mlp(m) => m.predict_batch(&graphs),
        };
        Evaluation::from_pairs(
            test.samples
                .iter()
                .zip(preds)
                .map(|(s, p)| (s.label, ContainerClass::from_index(p as usize))),
        )
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
        let gcn = clf.gcn().expect("default config is GCN");
        let rebuilt = Classifier::from_gcn(
            Gcn::from_parts(
                gcn.config().clone(),
                gcn.conv_weights().to_vec(),
                gcn.head_weights().clone(),
            ),
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
    fn probabilities_are_a_distribution() {
        let ds = dataset();
        let clf = Classifier::new(&quick_config(1));
        let p = clf.predict_proba(&ds.samples[0].graph);
        assert_eq!(p.len(), ContainerClass::COUNT);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }
}
