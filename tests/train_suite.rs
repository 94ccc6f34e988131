//! Repository-level differential suite for the batched training engine:
//! a classifier trained by the block-diagonal fast path must be bitwise
//! identical to a GCN of the same configuration trained on the per-batch
//! reference tape (`Gcn::train_reference`), across seeds, batch sizes, and
//! thread counts.
//!
//! Together with `par_suite.rs` this is the contract that lets the fast
//! engine replace the tape wholesale: same bits, fewer seconds.

use tiara::features::FEATURE_DIM;
use tiara::{Classifier, ClassifierConfig, Dataset, Slicer};
use tiara_gnn::{Gcn, GcnConfig};
use tiara_ir::ContainerClass;
use tiara_par::{set_global_threads, Executor};
use tiara_synth::{generate, Binary, ProjectSpec, TypeCounts};

fn training_binary(seed: u64) -> Binary {
    generate(&ProjectSpec {
        name: "train-suite".into(),
        index: 1,
        seed,
        counts: TypeCounts { list: 4, vector: 5, map: 4, primitive: 12, ..Default::default() },
    })
}

fn dataset(bin: &Binary) -> Dataset {
    Dataset::from_binary_with(
        &bin.program,
        &bin.debug,
        "train-suite",
        &Slicer::default(),
        &Executor::sequential(),
    )
}

fn config(seed: u64, batch_size: usize) -> ClassifierConfig {
    ClassifierConfig { epochs: 10, seed, batch_size, ..Default::default() }
}

/// Every class probability over every sample, from a classifier trained on
/// the batched engine.
fn fast_bits(ds: &Dataset, seed: u64, batch_size: usize) -> Vec<u32> {
    let mut clf = Classifier::new(&config(seed, batch_size));
    clf.train(ds).expect("nonempty dataset");
    ds.samples
        .iter()
        .flat_map(|s| clf.predict_proba(&s.graph).into_iter().map(f32::to_bits))
        .collect()
}

/// The same bits from the reference tape: training and inference both run
/// through `Gcn`'s tape entry points.
fn reference_bits(ds: &Dataset, seed: u64, batch_size: usize) -> Vec<u32> {
    let c = config(seed, batch_size);
    let mut gcn = Gcn::new(GcnConfig {
        input_dim: FEATURE_DIM,
        hidden_dim: c.hidden_dim,
        num_layers: c.num_layers,
        aggregation: c.aggregation,
        num_classes: ContainerClass::COUNT,
        learning_rate: c.learning_rate,
        epochs: c.epochs,
        batch_size: c.batch_size,
        seed: c.seed,
    });
    let graphs = ds.graphs();
    gcn.train_reference(&graphs);
    gcn.predict_proba_reference(&graphs).into_iter().flatten().map(f32::to_bits).collect()
}

#[test]
fn batched_engine_matches_reference_tape_across_seeds_and_batch_sizes() {
    let bin = training_binary(41);
    let ds = dataset(&bin);
    set_global_threads(1);
    for seed in [7u64, 23] {
        for batch_size in [1usize, 4, 32] {
            assert_eq!(
                fast_bits(&ds, seed, batch_size),
                reference_bits(&ds, seed, batch_size),
                "batched and reference training diverged at seed {seed}, batch {batch_size}"
            );
        }
    }
}

#[test]
fn batched_engine_matches_reference_tape_across_thread_counts() {
    let bin = training_binary(42);
    let ds = dataset(&bin);
    set_global_threads(1);
    let want = reference_bits(&ds, 7, 8);
    for threads in [1usize, 2, 4] {
        set_global_threads(threads);
        assert_eq!(
            fast_bits(&ds, 7, 8),
            want,
            "batched training at {threads} threads diverged from the reference tape"
        );
    }
    set_global_threads(1);
}
