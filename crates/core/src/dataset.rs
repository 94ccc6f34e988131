//! Labeled slice datasets: slicing every labeled variable of a binary and
//! packaging the results for training/evaluation.
//!
//! The paper's artifact does the same in two steps (an IDAPython pass
//! producing per-binary JSON slice files, then `combine.py --split` /
//! `--mergeout` on the learning machine); [`Dataset`] mirrors that interface
//! with [`Dataset::split`] and [`Dataset::merge`].

use crate::graph::slice_to_graph;
use crate::slice_cache;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tiara_gnn::GraphSample;
use tiara_ir::{ContainerClass, DebugInfo, Program, VarAddr, VarRecord};
use tiara_par::Executor;
use tiara_slice::{sslice_with_facts, tslice_with_facts, ProgramFacts, Slice, TsliceConfig};

/// Which slicing algorithm feeds the classifier: TSLICE (TIARA proper) or
/// SSLICE (the `TIARA_SSLICE` baseline of RQ3).
///
/// A saved [`crate::Tiara`] container persists the slicer it was trained
/// with (slicer knobs change the feature distribution a model saw).
#[derive(Debug, Clone)]
pub enum Slicer {
    /// The type-relevant slicer with its configuration.
    Tslice(TsliceConfig),
    /// The simple function-granularity baseline.
    Sslice,
}

impl Default for Slicer {
    fn default() -> Slicer {
        Slicer::Tslice(TsliceConfig::default())
    }
}

impl Slicer {
    /// Runs the slicer for one variable.
    pub fn run(&self, prog: &Program, addr: VarAddr) -> Slice {
        self.run_with_facts(&ProgramFacts::new(prog), addr)
    }

    /// [`Slicer::run`] over per-program facts shared across the variables
    /// of one program (see [`ProgramFacts`]).
    pub fn run_with_facts(&self, facts: &ProgramFacts<'_>, addr: VarAddr) -> Slice {
        match self {
            Slicer::Tslice(cfg) => tslice_with_facts(facts, addr, cfg).slice,
            Slicer::Sslice => sslice_with_facts(facts, addr),
        }
    }

    /// A short display name (`TSLICE` / `SSLICE`).
    pub fn name(&self) -> &'static str {
        match self {
            Slicer::Tslice(_) => "TSLICE",
            Slicer::Sslice => "SSLICE",
        }
    }
}

/// One labeled, sliced variable.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The variable address (the slicing criterion).
    pub addr: VarAddr,
    /// Ground-truth label.
    pub label: ContainerClass,
    /// The project the variable came from.
    pub project: String,
    /// The slice as a classifier input graph.
    pub graph: GraphSample,
    /// Slice size (nodes), kept for the Table III statistics.
    pub slice_nodes: usize,
    /// Slice size (edges).
    pub slice_edges: usize,
}

/// A set of labeled samples.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// The samples.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Dataset {
        Dataset::default()
    }

    /// Slices every labeled variable of a binary and builds the dataset,
    /// parallelizing per-address slicing, slice→graph conversion, and
    /// feature encoding on the global executor.
    pub fn from_binary(
        prog: &Program,
        debug: &DebugInfo,
        project: &str,
        slicer: &Slicer,
    ) -> Dataset {
        Dataset::from_binary_with(prog, debug, project, slicer, &tiara_par::global())
    }

    /// [`Dataset::from_binary`] on an explicit executor.
    ///
    /// Each variable address is an independent work item (output order is
    /// the debug-info order regardless of the thread count). Slices are
    /// looked up in the process-wide [`slice_cache`] first, so repeated
    /// eval/ablation passes over the same binary and slicer configuration
    /// skip the slicing stage entirely.
    pub fn from_binary_with(
        prog: &Program,
        debug: &DebugInfo,
        project: &str,
        slicer: &Slicer,
        exec: &Executor,
    ) -> Dataset {
        let records: Vec<VarRecord> = debug.iter().copied().collect();
        let prog_fp = slice_cache::program_fingerprint(prog);
        let slicer_fp = slice_cache::slicer_fingerprint(slicer);
        let facts = ProgramFacts::new(prog);
        let samples = exec.par_map(&records, |_, rec| {
            let slice = slice_cache::get_or_slice(prog_fp, slicer_fp, rec.addr, || {
                slicer.run_with_facts(&facts, rec.addr)
            });
            let graph = slice_to_graph(prog, &slice, rec.class.index() as u32);
            Sample {
                addr: rec.addr,
                label: rec.class,
                project: project.to_owned(),
                graph,
                slice_nodes: slice.num_nodes(),
                slice_edges: slice.num_edges(),
            }
        });
        Dataset { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of samples with a label.
    pub fn count_of(&self, class: ContainerClass) -> usize {
        self.samples.iter().filter(|s| s.label == class).count()
    }

    /// Merges the samples of `other` into `self` (the artifact's
    /// `combine.py --mergeout`).
    pub fn merge(&mut self, other: Dataset) {
        self.samples.extend(other.samples);
    }

    /// Randomly splits into train/test with the given training fraction
    /// (the paper uses 4:1, i.e. `0.8`); both halves are shuffled.
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is outside `(0, 1)`.
    pub fn split(&self, train_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(train_fraction > 0.0 && train_fraction < 1.0, "train fraction must be in (0, 1)");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..self.samples.len()).collect();
        idx.shuffle(&mut rng);
        let n_train = ((self.samples.len() as f64) * train_fraction).round() as usize;
        let (tr, te) = idx.split_at(n_train.min(self.samples.len()));
        let train = Dataset { samples: tr.iter().map(|&i| self.samples[i].clone()).collect() };
        let test = Dataset { samples: te.iter().map(|&i| self.samples[i].clone()).collect() };
        (train, test)
    }

    /// Partitions by project membership: samples of `projects` vs the rest.
    pub fn split_by_projects(&self, projects: &[&str]) -> (Dataset, Dataset) {
        let inside = Dataset {
            samples: self
                .samples
                .iter()
                .filter(|s| projects.contains(&s.project.as_str()))
                .cloned()
                .collect(),
        };
        let outside = Dataset {
            samples: self
                .samples
                .iter()
                .filter(|s| !projects.contains(&s.project.as_str()))
                .cloned()
                .collect(),
        };
        (inside, outside)
    }

    /// The graphs, for training.
    pub fn graphs(&self) -> Vec<GraphSample> {
        self.samples.iter().map(|s| s.graph.clone()).collect()
    }

    /// Mean slice size (nodes, edges) over samples with a given label —
    /// the Table III statistic.
    pub fn mean_slice_size(&self, class: ContainerClass) -> Option<(f64, f64)> {
        let sel: Vec<&Sample> = self.samples.iter().filter(|s| s.label == class).collect();
        if sel.is_empty() {
            return None;
        }
        let n = sel.len() as f64;
        let nodes: usize = sel.iter().map(|s| s.slice_nodes).sum();
        let edges: usize = sel.iter().map(|s| s.slice_edges).sum();
        Some((nodes as f64 / n, edges as f64 / n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_synth::{generate, ProjectSpec, TypeCounts};

    fn small_binary() -> tiara_synth::Binary {
        generate(&ProjectSpec {
            name: "t".into(),
            index: 0,
            seed: 5,
            counts: TypeCounts { list: 2, vector: 3, map: 2, primitive: 8, ..Default::default() },
        })
    }

    #[test]
    fn from_binary_covers_every_variable() {
        let bin = small_binary();
        let ds = Dataset::from_binary(&bin.program, &bin.debug, "t", &Slicer::default());
        assert_eq!(ds.len(), 15);
        assert_eq!(ds.count_of(ContainerClass::List), 2);
        assert_eq!(ds.count_of(ContainerClass::Primitive), 8);
        assert!(ds.samples.iter().all(|s| s.project == "t"));
        assert!(ds.samples.iter().all(|s| s.graph.num_nodes() >= 1));
    }

    #[test]
    fn parallel_from_binary_matches_sequential() {
        use tiara_par::Executor;
        let bin = small_binary();
        let slicer = Slicer::default();
        let seq = Dataset::from_binary_with(
            &bin.program,
            &bin.debug,
            "t",
            &slicer,
            &Executor::sequential(),
        );
        for threads in [2, 4, 7] {
            let par = Dataset::from_binary_with(
                &bin.program,
                &bin.debug,
                "t",
                &slicer,
                &Executor::new(threads),
            );
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.samples.iter().zip(&par.samples) {
                assert_eq!(a.addr, b.addr, "sample order must follow debug-info order");
                assert_eq!(a.label, b.label);
                assert_eq!(a.graph.features, b.graph.features);
                assert_eq!(a.graph.edges, b.graph.edges);
                assert_eq!(a.slice_nodes, b.slice_nodes);
                assert_eq!(a.slice_edges, b.slice_edges);
            }
        }
    }

    #[test]
    fn split_ratio_and_disjointness() {
        let bin = small_binary();
        let ds = Dataset::from_binary(&bin.program, &bin.debug, "t", &Slicer::default());
        let (tr, te) = ds.split(0.8, 7);
        assert_eq!(tr.len() + te.len(), ds.len());
        assert_eq!(tr.len(), 12);
        // Determinism.
        let (tr2, _) = ds.split(0.8, 7);
        assert_eq!(
            tr.samples.iter().map(|s| s.addr).collect::<Vec<_>>(),
            tr2.samples.iter().map(|s| s.addr).collect::<Vec<_>>()
        );
    }

    #[test]
    fn split_by_projects_partitions() {
        let bin = small_binary();
        let mut ds = Dataset::from_binary(&bin.program, &bin.debug, "a", &Slicer::default());
        let ds_b = Dataset::from_binary(&bin.program, &bin.debug, "b", &Slicer::default());
        ds.merge(ds_b);
        let (a, rest) = ds.split_by_projects(&["a"]);
        assert_eq!(a.len(), 15);
        assert_eq!(rest.len(), 15);
        assert!(a.samples.iter().all(|s| s.project == "a"));
    }

    #[test]
    fn sslice_produces_larger_slices() {
        let bin = small_binary();
        let t = Dataset::from_binary(&bin.program, &bin.debug, "t", &Slicer::default());
        let s = Dataset::from_binary(&bin.program, &bin.debug, "t", &Slicer::Sslice);
        let tm = t.mean_slice_size(ContainerClass::Vector).unwrap();
        let sm = s.mean_slice_size(ContainerClass::Vector).unwrap();
        assert!(sm.0 > tm.0, "SSLICE nodes {} vs TSLICE {}", sm.0, tm.0);
        assert_eq!(t.mean_slice_size(ContainerClass::List).map(|_| ()), Some(()));
    }

    #[test]
    #[should_panic(expected = "train fraction")]
    fn invalid_split_fraction_panics() {
        let ds = Dataset::new();
        let _ = ds.split(1.5, 0);
    }
}
