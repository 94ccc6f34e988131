//! The end-to-end TIARA pipeline (Figure 3): slice → encode → classify.
//!
//! [`Tiara`] bundles a slicer and a classifier: train it on binaries with
//! ground truth, then query container types for raw variable addresses in
//! new binaries.
//!
//! The public prediction surface is **batch-first and fallible**:
//! [`Tiara::predict_batch`] slices, encodes, and classifies a whole batch of
//! addresses in parallel on the shared [`tiara_par`] executor (bitwise
//! deterministic at any thread count), and [`Tiara::try_predict`] is the
//! single-address special case. Both return [`Prediction`] values carrying
//! the class, the per-class probabilities, and the slice's size and hot-loop
//! counters — the payload the serving layer (`tiara-serve`) forwards on the
//! wire.
//!
//! Every stage runs on the shared [`tiara_par`] executor: per-address
//! slicing, slice→graph conversion, and feature encoding are parallel per
//! variable (see [`Dataset::from_binary_with`]), and the GCN's dense/sparse
//! kernels are parallel over output-row blocks. Thread count comes from
//! [`tiara_par::set_global_threads`] (the CLIs' `--threads` flag), the
//! `TIARA_THREADS` environment variable, or `available_parallelism`, in that
//! precedence order — results are bitwise identical at any setting.

use crate::classifier::{Classifier, ClassifierConfig};
use crate::container;
use crate::dataset::{Dataset, Slicer};
use crate::error::Error;
use crate::graph::slice_to_graph;
use crate::slice_cache;
use tiara_container::{AlignedBytes, Reader};
use tiara_gnn::{argmax_slice, EpochStats};
use tiara_ir::{ContainerClass, DebugInfo, Program, VarAddr};
use tiara_par::Executor;
use tiara_slice::SliceStats;

/// The full TIARA system: a configured slicer plus a (trainable) GCN
/// classifier.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`TiaraConfig::new`] (or `default()`) and the builder-style `with_*`
/// methods, so later PRs can add knobs without breaking callers.
///
/// # Examples
///
/// ```
/// use tiara::{ClassifierConfig, Tiara, TiaraConfig};
/// use tiara_synth::{generate, ProjectSpec, TypeCounts};
///
/// // A small synthetic project stands in for a real labeled binary.
/// let spec = ProjectSpec {
///     name: "demo".into(),
///     index: 0,
///     seed: 7,
///     counts: TypeCounts { list: 1, vector: 2, map: 2, primitive: 4, ..Default::default() },
/// };
/// let bin = generate(&spec);
///
/// let config = TiaraConfig::new()
///     .with_classifier(ClassifierConfig { epochs: 2, ..Default::default() });
/// let mut tiara = Tiara::new(config);
/// tiara.train(&[("demo", &bin.program, &bin.debug)])?;
///
/// let (addr, _label) = bin.labeled_vars().next().expect("project has labeled variables");
/// let prediction = tiara.try_predict(&bin.program, addr)?;
/// println!("the variable at {addr} looks like a {}", prediction.class);
/// # Ok::<(), tiara::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct TiaraConfig {
    /// The slicing stage.
    pub slicer: Slicer,
    /// The classification stage.
    pub classifier: ClassifierConfig,
}

impl TiaraConfig {
    /// The default configuration (TSLICE with the paper's decay constants,
    /// the 2×64 mean-pooling GCN).
    pub fn new() -> TiaraConfig {
        TiaraConfig::default()
    }

    /// Replaces the slicer stage.
    pub fn with_slicer(mut self, slicer: Slicer) -> TiaraConfig {
        self.slicer = slicer;
        self
    }

    /// Replaces the classifier stage.
    pub fn with_classifier(mut self, classifier: ClassifierConfig) -> TiaraConfig {
        self.classifier = classifier;
        self
    }
}

/// One answered query: everything the pipeline knows about a variable after
/// slicing, encoding, and classifying it.
///
/// This is the unit the serving layer streams back to clients, so it carries
/// attribution (slice size, hot-loop counters) alongside the answer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Prediction {
    /// The address that was queried (the slicing criterion).
    pub addr: VarAddr,
    /// The predicted container class.
    pub class: ContainerClass,
    /// Per-class probabilities, indexed by [`ContainerClass::index`].
    pub probs: Vec<f32>,
    /// Nodes in the type-relevant slice.
    pub slice_nodes: usize,
    /// Edges in the type-relevant slice.
    pub slice_edges: usize,
    /// The slicer's hot-loop counters for this slice (all zero when the
    /// slice came out of the process-wide cache — no slicing ran).
    pub stats: SliceStats,
}

/// The TIARA system.
#[derive(Debug, Clone)]
pub struct Tiara {
    slicer: Slicer,
    classifier: Classifier,
    /// How many slice-cache entries the container this system was loaded
    /// from carried (0 for fresh systems).
    restored_cache_entries: usize,
}

impl Tiara {
    /// Creates an untrained system.
    pub fn new(config: TiaraConfig) -> Tiara {
        Tiara {
            slicer: config.slicer.clone(),
            classifier: Classifier::new(&config.classifier),
            restored_cache_entries: 0,
        }
    }

    /// The slicer in use.
    pub fn slicer(&self) -> &Slicer {
        &self.slicer
    }

    /// The underlying classifier.
    pub fn classifier(&self) -> &Classifier {
        &self.classifier
    }

    /// Whether the system is ready to answer queries.
    pub fn is_trained(&self) -> bool {
        self.classifier.is_trained()
    }

    /// Perf counters of the most recent training call (see
    /// [`Classifier::train_stats`]).
    pub fn train_stats(&self) -> tiara_gnn::TrainStats {
        self.classifier.train_stats()
    }

    /// Builds the training dataset from labeled binaries (slicing every
    /// recorded variable) and trains the classifier.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyDataset`] if the binaries contain no labeled
    /// variables.
    pub fn train(
        &mut self,
        binaries: &[(&str, &Program, &DebugInfo)],
    ) -> Result<Vec<EpochStats>, Error> {
        let mut ds = Dataset::new();
        for (name, prog, debug) in binaries {
            ds.merge(Dataset::from_binary(prog, debug, name, &self.slicer));
        }
        self.classifier.train(&ds)
    }

    /// Trains directly on a pre-built dataset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyDataset`] if the dataset is empty.
    pub fn train_on(&mut self, dataset: &Dataset) -> Result<Vec<EpochStats>, Error> {
        self.classifier.train(dataset)
    }

    /// Predicts the container class of the variable at `addr`: runs the
    /// slicer (consulting the process-wide slice cache), encodes the slice,
    /// and queries the classifier.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Untrained`] if the classifier has not been trained,
    /// or [`Error::Slice`] if `addr` names a frame slot of a function the
    /// program does not contain.
    pub fn try_predict(&self, prog: &Program, addr: VarAddr) -> Result<Prediction, Error> {
        let batch = self.predict_batch(prog, std::slice::from_ref(&addr))?;
        Ok(batch.into_iter().next().expect("one address in, one prediction out"))
    }

    /// Answers a whole batch of queries against one program, parallel per
    /// address on the global executor.
    ///
    /// Results come back in `addrs` order and are bitwise identical at any
    /// thread count. Slices are looked up in the process-wide
    /// [`slice_cache`] first, so a daemon answering repeated queries against
    /// the same binary skips the slicing stage entirely after warm-up.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Untrained`] if the classifier has not been trained,
    /// or [`Error::Slice`] naming the first invalid address (a frame slot of
    /// a nonexistent function). The whole batch is validated before any
    /// slicing runs: an `Err` means no work was done.
    pub fn predict_batch(
        &self,
        prog: &Program,
        addrs: &[VarAddr],
    ) -> Result<Vec<Prediction>, Error> {
        self.predict_batch_with(prog, addrs, &tiara_par::global())
    }

    /// [`Tiara::predict_batch`] on an explicit executor.
    ///
    /// # Errors
    ///
    /// As [`Tiara::predict_batch`].
    pub fn predict_batch_with(
        &self,
        prog: &Program,
        addrs: &[VarAddr],
        exec: &Executor,
    ) -> Result<Vec<Prediction>, Error> {
        let fp = slice_cache::program_fingerprint(prog);
        self.predict_batch_fingerprinted(prog, fp, addrs, exec)
    }

    /// [`Tiara::predict_batch_with`] with a precomputed program fingerprint
    /// (see [`slice_cache::program_fingerprint`]).
    ///
    /// The fingerprint is what keys the slice cache; a long-lived server
    /// that keeps programs resident computes it once per upload instead of
    /// once per request.
    ///
    /// # Errors
    ///
    /// As [`Tiara::predict_batch`].
    pub fn predict_batch_fingerprinted(
        &self,
        prog: &Program,
        program_fp: u64,
        addrs: &[VarAddr],
        exec: &Executor,
    ) -> Result<Vec<Prediction>, Error> {
        if !self.classifier.is_trained() {
            return Err(Error::Untrained);
        }
        let num_funcs = prog.funcs().len() as u32;
        for addr in addrs {
            if let VarAddr::Stack { func, .. } = addr {
                if func.0 >= num_funcs {
                    return Err(Error::Slice(format!(
                        "no function {func} in a program of {num_funcs} functions \
                         (address {addr})"
                    )));
                }
            }
        }
        let slicer_fp = slice_cache::slicer_fingerprint(&self.slicer);
        // Per-program slicer facts, shared by the whole batch and computed
        // on the first cache miss that needs them.
        let facts = tiara_slice::ProgramFacts::new(prog);
        // Stage 1 — slice and encode, parallel per address.
        let sliced = exec.par_map(addrs, |_, &addr| {
            let spills_before = tiara_slice::thread_spills();
            let mut stats = SliceStats::default();
            let slice =
                slice_cache::get_or_slice(program_fp, slicer_fp, addr, || match &self.slicer {
                    Slicer::Tslice(cfg) => {
                        let out = tiara_slice::tslice_with_facts(&facts, addr, cfg);
                        stats = out.stats;
                        out.slice
                    }
                    Slicer::Sslice => tiara_slice::sslice(prog, addr),
                });
            stats.set_spills = tiara_slice::thread_spills() - spills_before;
            let graph = slice_to_graph(prog, &slice, 0);
            (graph, slice.num_nodes(), slice.num_edges(), stats)
        });
        // Stage 2 — classify the whole batch in one pass: the forward runs
        // once per `batch_size` chunk instead of twice per address (the
        // pre-PR8 cost: a tape forward for the class and another for the
        // probabilities). Labels are read off the probability rows with the
        // same argmax every other path uses.
        let mut graphs = Vec::with_capacity(sliced.len());
        let mut metas = Vec::with_capacity(sliced.len());
        for (g, n, e, s) in sliced {
            graphs.push(g);
            metas.push((n, e, s));
        }
        let probs = self.classifier.predict_proba_batch(&graphs);
        Ok(addrs
            .iter()
            .zip(metas)
            .zip(probs)
            .map(|((&addr, (slice_nodes, slice_edges, stats)), probs)| Prediction {
                addr,
                class: ContainerClass::from_index(argmax_slice(&probs)),
                probs,
                slice_nodes,
                slice_edges,
                stats,
            })
            .collect())
    }

    /// Replaces the classifier with a previously trained one.
    pub fn with_classifier(mut self, classifier: Classifier) -> Tiara {
        self.classifier = classifier;
        self
    }

    /// Serializes the whole system to `.tc` container bytes (see
    /// [`tiara_container`]): header + UUID + TOC of checksummed sections,
    /// with the weight matrices laid out for zero-copy loading.
    /// Deterministic — two calls on the same system produce identical bytes.
    pub fn to_container_bytes(&self) -> Vec<u8> {
        container::encode(&self.slicer, &self.classifier, false)
    }

    /// Like [`Tiara::to_container_bytes`], plus `CACHE_SHARD` sections
    /// snapshotting the process-wide [`slice_cache`], so the next process
    /// starts with a warm cache.
    pub fn to_container_bytes_with_cache(&self) -> Vec<u8> {
        container::encode(&self.slicer, &self.classifier, true)
    }

    /// Reconstructs a system from a validated container [`Reader`]. Weight
    /// matrices borrow the reader's mapped bytes zero-copy; persisted cache
    /// shards are restored into the process-wide [`slice_cache`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persistence`] for any structural violation.
    pub fn from_container_reader(reader: &Reader) -> Result<Tiara, Error> {
        let d = container::decode(reader)?;
        Ok(Tiara {
            slicer: d.slicer,
            classifier: d.classifier,
            restored_cache_entries: d.restored_cache_entries,
        })
    }

    /// How many slice-cache entries the container this system was loaded
    /// from restored into the process-wide [`slice_cache`] (0 unless loaded
    /// from a [`Tiara::save_with_cache`] artifact).
    pub fn restored_cache_entries(&self) -> usize {
        self.restored_cache_entries
    }

    /// [`Tiara::from_container_reader`] over a raw byte buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persistence`] if the bytes are not a valid container.
    pub fn from_container_bytes(bytes: &[u8]) -> Result<Tiara, Error> {
        Tiara::from_container_reader(&Reader::new(AlignedBytes::copy_from(bytes))?)
    }

    /// Total bytes the model weights borrow zero-copy from mapped container
    /// storage — 0 for a trained-in-process system. This is the "reused
    /// bytes" stat the benchmark and serve `stats` report.
    pub fn mapped_weight_bytes(&self) -> usize {
        self.classifier.mapped_weight_bytes()
    }

    /// A stable digest over the model configuration and every weight bit,
    /// independent of storage (owned vs mapped). Equal digests ⇒ bitwise
    /// identical predictions.
    pub fn model_digest(&self) -> u64 {
        container::model_digest(&self.classifier)
    }

    /// Saves the whole system (config + model) to a `.tc` container file.
    ///
    /// # Errors
    ///
    /// Returns I/O errors.
    pub fn save(&self, path: &std::path::Path) -> Result<(), Error> {
        std::fs::write(path, self.to_container_bytes()).map_err(Error::from)
    }

    /// [`Tiara::save`] plus the current slice-cache contents (see
    /// [`Tiara::to_container_bytes_with_cache`]).
    ///
    /// # Errors
    ///
    /// Returns I/O errors.
    pub fn save_with_cache(&self, path: &std::path::Path) -> Result<(), Error> {
        std::fs::write(path, self.to_container_bytes_with_cache()).map_err(Error::from)
    }

    /// Loads a system saved by [`Tiara::save`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the file cannot be read, or
    /// [`Error::Persistence`] if it is not a valid `.tc` container.
    pub fn load(path: &std::path::Path) -> Result<Tiara, Error> {
        Tiara::from_container_reader(&Reader::new(AlignedBytes::read_file(path)?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassifierConfig;
    use tiara_synth::{generate, ProjectSpec, TypeCounts};

    fn e2e_binary() -> tiara_synth::Binary {
        generate(&ProjectSpec {
            name: "e2e".into(),
            index: 1,
            seed: 77,
            counts: TypeCounts { list: 5, vector: 6, map: 5, primitive: 14, ..Default::default() },
        })
    }

    #[test]
    fn end_to_end_train_and_predict() {
        let bin = e2e_binary();
        let cfg = TiaraConfig::new().with_classifier(ClassifierConfig {
            epochs: 30,
            batch_size: 8,
            ..Default::default()
        });
        let mut tiara = Tiara::new(cfg);
        tiara.train(&[("e2e", &bin.program, &bin.debug)]).unwrap();

        // Predict on the training variables: most should come back right.
        let mut correct = 0usize;
        for (addr, class) in bin.labeled_vars() {
            if tiara.try_predict(&bin.program, addr).unwrap().class == class {
                correct += 1;
            }
        }
        let acc = correct as f64 / bin.debug.len() as f64;
        assert!(acc > 0.6, "training-set accuracy {acc}");

        let p = tiara.try_predict(&bin.program, bin.debug.vars[0].addr).unwrap();
        assert!((p.probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p.slice_nodes >= 1);
        assert_eq!(p.addr, bin.debug.vars[0].addr);
    }

    #[test]
    fn untrained_prediction_is_an_error_not_a_panic() {
        let bin = e2e_binary();
        let tiara = Tiara::new(TiaraConfig::new());
        assert!(matches!(
            tiara.try_predict(&bin.program, bin.debug.vars[0].addr),
            Err(Error::Untrained)
        ));
        assert!(matches!(
            tiara.predict_batch(&bin.program, &[bin.debug.vars[0].addr]),
            Err(Error::Untrained)
        ));
    }

    #[test]
    fn untrained_training_set_must_be_nonempty() {
        let mut tiara = Tiara::new(TiaraConfig::default());
        assert!(matches!(tiara.train(&[]), Err(Error::EmptyDataset)));
    }

    #[test]
    fn batch_matches_per_address_and_is_thread_invariant() {
        let bin = e2e_binary();
        let cfg = TiaraConfig::new().with_classifier(ClassifierConfig {
            epochs: 5,
            batch_size: 8,
            ..Default::default()
        });
        let mut tiara = Tiara::new(cfg);
        tiara.train(&[("e2e", &bin.program, &bin.debug)]).unwrap();

        let addrs: Vec<_> = bin.labeled_vars().map(|(a, _)| a).collect();
        let seq = tiara.predict_batch_with(&bin.program, &addrs, &Executor::sequential()).unwrap();
        assert_eq!(seq.len(), addrs.len());
        for threads in [2, 4, 7] {
            let par =
                tiara.predict_batch_with(&bin.program, &addrs, &Executor::new(threads)).unwrap();
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.addr, b.addr, "batch output must follow input order");
                assert_eq!(a.class, b.class);
                let ab: Vec<u32> = a.probs.iter().map(|p| p.to_bits()).collect();
                let bb: Vec<u32> = b.probs.iter().map(|p| p.to_bits()).collect();
                assert_eq!(ab, bb, "probabilities must be bitwise identical");
                assert_eq!(a.slice_nodes, b.slice_nodes);
            }
        }
        // Per-address queries agree with the batch, field by field.
        for (i, &addr) in addrs.iter().enumerate() {
            let single = tiara.try_predict(&bin.program, addr).unwrap();
            assert_eq!(single.class, seq[i].class);
            assert_eq!(
                single.probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                seq[i].probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn batch_rejects_frame_slots_of_unknown_functions() {
        let bin = e2e_binary();
        let cfg = TiaraConfig::new().with_classifier(ClassifierConfig {
            epochs: 1,
            batch_size: 8,
            ..Default::default()
        });
        let mut tiara = Tiara::new(cfg);
        tiara.train(&[("e2e", &bin.program, &bin.debug)]).unwrap();
        let bogus = VarAddr::Stack { func: tiara_ir::FuncId(u32::MAX), offset: -8 };
        assert!(matches!(
            tiara.predict_batch(&bin.program, &[bin.debug.vars[0].addr, bogus]),
            Err(Error::Slice(_))
        ));
    }

    /// A scratch path in the system temp dir, unique per test.
    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tiara-pipeline-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn saved_and_loaded_system_predicts_bitwise_identically() {
        let bin = e2e_binary();
        let cfg = TiaraConfig::new().with_classifier(ClassifierConfig {
            epochs: 3,
            batch_size: 8,
            ..Default::default()
        });
        let mut tiara = Tiara::new(cfg);
        tiara.train(&[("e2e", &bin.program, &bin.debug)]).unwrap();

        let back = Tiara::from_container_bytes(&tiara.to_container_bytes()).unwrap();
        assert!(back.is_trained());
        assert_eq!(tiara.model_digest(), back.model_digest(), "digests must agree");
        assert_eq!(tiara.mapped_weight_bytes(), 0, "trained in process: owned weights");
        assert!(back.mapped_weight_bytes() > 0, "loaded weights must borrow the mapped bytes");
        for (addr, _) in bin.labeled_vars() {
            let a = tiara.try_predict(&bin.program, addr).unwrap();
            let b = back.try_predict(&bin.program, addr).unwrap();
            assert_eq!(a.class, b.class);
            assert_eq!(
                a.probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                b.probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "saved/loaded predictions must be bitwise identical at {addr}"
            );
        }
    }

    #[test]
    fn save_load_via_files_and_non_container_rejection() {
        let bin = e2e_binary();
        let cfg = TiaraConfig::new().with_classifier(ClassifierConfig {
            epochs: 2,
            batch_size: 8,
            ..Default::default()
        });
        let mut tiara = Tiara::new(cfg);
        tiara.train(&[("e2e", &bin.program, &bin.debug)]).unwrap();

        // Container file round trip; saving twice is byte-identical.
        let tc = temp_path("model.tc");
        tiara.save(&tc).unwrap();
        assert_eq!(std::fs::read(&tc).unwrap(), tiara.to_container_bytes());
        let from_tc = Tiara::load(&tc).unwrap();
        assert_eq!(from_tc.model_digest(), tiara.model_digest());
        std::fs::remove_file(&tc).unwrap();

        // Anything else — a JSON model bundle included — is a typed
        // persistence error, not a panic or a fallback parse.
        let json_path = temp_path("model.json");
        std::fs::write(&json_path, "{\"slicer\":\"Sslice\",\"classifier\":{}}").unwrap();
        let err = Tiara::load(&json_path).unwrap_err();
        std::fs::remove_file(&json_path).unwrap();
        assert!(matches!(err, Error::Persistence(_)), "got {err:?}");
    }

    #[test]
    fn container_persists_and_restores_the_slice_cache() {
        let _guard = crate::slice_cache::test_lock();
        let bin = e2e_binary();
        let cfg = TiaraConfig::new().with_classifier(ClassifierConfig {
            epochs: 2,
            batch_size: 8,
            ..Default::default()
        });
        let mut tiara = Tiara::new(cfg);
        tiara.train(&[("e2e", &bin.program, &bin.debug)]).unwrap();

        let addrs: Vec<_> = bin.labeled_vars().map(|(a, _)| a).collect();
        slice_cache::clear();
        let warm = tiara.predict_batch(&bin.program, &addrs).unwrap();
        let entries = slice_cache::stats().entries;
        assert!(entries > 0, "warm pass must populate the cache");
        let path = temp_path("cache.tc");
        tiara.save_with_cache(&path).unwrap();

        // Simulate a fresh process: empty cache, model loaded from the file.
        slice_cache::clear();
        let back = Tiara::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        // Other core tests share the process-wide cache, so compare with ≥:
        // everything we warmed must come back (plus whatever they added).
        assert!(
            back.restored_cache_entries() >= entries,
            "restored {} of {entries} cache entries",
            back.restored_cache_entries()
        );
        // Every warmed address must answer from the restored cache without
        // slicing — the compute closure must never run.
        let prog_fp = slice_cache::program_fingerprint(&bin.program);
        let slicer_fp = slice_cache::slicer_fingerprint(back.slicer());
        for &addr in &addrs {
            let _ = slice_cache::get_or_slice(prog_fp, slicer_fp, addr, || {
                panic!("restored cache must already contain {addr}")
            });
        }
        let cold = back.predict_batch(&bin.program, &addrs).unwrap();
        for (a, b) in warm.iter().zip(&cold) {
            assert_eq!(a.class, b.class);
            assert_eq!(
                a.probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                b.probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
            );
        }
        slice_cache::clear();
    }

    /// Persists a cache shard whose entries are keyed by `foreign(key)`,
    /// where `key` is this build's default slicer key, and checks that the
    /// shard loads cleanly and that every lookup under `key` then misses.
    ///
    /// Other tests slice [`e2e_binary`] under the default key into the
    /// process-wide cache without holding `test_lock`, so this uses a
    /// program of its own: no concurrent test can turn a lookup into a hit.
    fn assert_foreign_shards_load_as_misses(foreign: impl Fn(u64) -> u64) {
        let _guard = crate::slice_cache::test_lock();
        let bin = generate(&ProjectSpec {
            name: "foreign-key".into(),
            index: 1,
            seed: 7_807,
            counts: TypeCounts { list: 3, vector: 3, map: 3, primitive: 8, ..Default::default() },
        });
        let mut tiara = Tiara::new(TiaraConfig::new().with_classifier(ClassifierConfig {
            epochs: 1,
            batch_size: 8,
            ..Default::default()
        }));
        tiara.train(&[("foreign-key", &bin.program, &bin.debug)]).unwrap();
        let addrs: Vec<_> = bin.labeled_vars().map(|(a, _)| a).collect();
        let prog_fp = slice_cache::program_fingerprint(&bin.program);
        let slicer_fp = slice_cache::slicer_fingerprint(tiara.slicer());
        let foreign = foreign(slicer_fp);
        assert_ne!(foreign, slicer_fp);
        slice_cache::clear();
        for &addr in &addrs {
            slice_cache::get_or_slice(prog_fp, foreign, addr, || {
                tiara.slicer().run(&bin.program, addr)
            });
        }
        let bytes = tiara.to_container_bytes_with_cache();
        slice_cache::clear();
        let back = Tiara::from_container_bytes(&bytes).expect("foreign keys are not an error");
        assert!(back.restored_cache_entries() >= addrs.len());
        let mut computed = 0;
        for &addr in &addrs {
            slice_cache::get_or_slice(prog_fp, slicer_fp, addr, || {
                computed += 1;
                back.slicer().run(&bin.program, addr)
            });
        }
        assert_eq!(computed, addrs.len(), "every lookup under the current key misses");
        slice_cache::clear();
    }

    #[test]
    fn cache_shards_under_an_unknown_slicer_key_load_as_misses() {
        // A shard persisted under a slicer key this build never produces
        // (an older fingerprint scheme, or another slicer) must load
        // cleanly and then simply never hit.
        assert_foreign_shards_load_as_misses(|key| !key);
    }

    #[test]
    fn cache_shards_sliced_under_the_old_value_set_cap_load_as_misses() {
        // Builds with value-set cap 48 keyed the default slicer by its `.tc`
        // encoding alone; their slices differ from this build's.
        assert_foreign_shards_load_as_misses(|_| slice_cache::PRE_CAP_DEFAULT_KEY);
    }

    #[test]
    fn config_builder_composes() {
        let cfg = TiaraConfig::new()
            .with_slicer(Slicer::Sslice)
            .with_classifier(ClassifierConfig { epochs: 9, ..Default::default() });
        assert!(matches!(cfg.slicer, Slicer::Sslice));
        assert_eq!(cfg.classifier.epochs, 9);
    }

    #[test]
    fn train_stats_flow_through_the_pipeline() {
        let bin = e2e_binary();
        let cfg = TiaraConfig::new().with_classifier(ClassifierConfig {
            epochs: 2,
            batch_size: 8,
            ..Default::default()
        });
        let mut tiara = Tiara::new(cfg);
        assert_eq!(tiara.train_stats().batches, 0, "untrained: zeroed counters");
        tiara.train(&[("e2e", &bin.program, &bin.debug)]).unwrap();
        let ts = tiara.train_stats();
        assert!(ts.batches > 0);
        assert!(ts.fused_kernel_calls > 0);
        assert!(ts.forward_secs >= 0.0 && ts.backward_secs >= 0.0);
    }
}
