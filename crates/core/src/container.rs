//! Encoding and decoding of a whole [`crate::Tiara`] system to the `.tc`
//! binary container format (see [`tiara_container`] for the byte layout).
//!
//! The encoder lays a trained system out as typed sections — model and
//! slicer configuration, the label vocabulary, one `WEIGHT_F32` section per
//! weight matrix, and optional `CACHE_SHARD` sections snapshotting the
//! process-wide slice cache. The decoder rebuilds the system with the weight
//! matrices *borrowing* the mapped file bytes zero-copy
//! ([`Matrix::from_shared`]): loading a model is O(sections), not
//! O(weights).
//!
//! Containers written while int8 inference existed may carry a set
//! `has_quant` byte and retired tag-5 sections; the decoder ignores both
//! and serves the f32 weights. Likewise the retired `reference_mode` bytes
//! (model and slicer config) and the `use_vsa` byte are written as 0, and
//! read, validated as bools and ignored.
//!
//! Every structural violation decodes to [`Error::Persistence`] — this
//! module never panics on untrusted bytes. Shape assertions in
//! `Gcn::from_parts` et al. are only reached after the decoder has verified
//! the same invariants fallibly.

use crate::classifier::Classifier;
use crate::dataset::Slicer;
use crate::error::Error;
use crate::slice_cache::{self, SnapshotEntry};
use std::sync::Arc;
use tiara_container::{fnv1a64, kind, F32Section, Reader, Writer, FNV_OFFSET};
use tiara_gnn::{Aggregation, Gcn, GcnConfig, Matrix, Mlp, MlpConfig};
use tiara_ir::{ContainerClass, FuncId, MemAddr, VarAddr};
use tiara_slice::{DecayFunction, Slice, SliceNode, TsliceConfig};

/// Everything [`crate::Tiara`] needs to reconstitute itself from a
/// container, plus how many slice-cache entries the file carried.
#[derive(Debug)]
pub(crate) struct DecodedTiara {
    pub(crate) slicer: Slicer,
    pub(crate) classifier: Classifier,
    pub(crate) restored_cache_entries: usize,
}

// ---------------------------------------------------------------------------
// Little-endian payload cursor helpers
// ---------------------------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn new() -> Enc {
        Enc(Vec::new())
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }
    fn f32(&mut self, v: f32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
}

struct Dec<'a> {
    b: &'a [u8],
    at: usize,
    what: &'static str,
}

fn bad<T>(msg: impl Into<String>) -> Result<T, Error> {
    Err(Error::Persistence(msg.into()))
}

impl<'a> Dec<'a> {
    fn new(b: &'a [u8], what: &'static str) -> Dec<'a> {
        Dec { b, at: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.b.len());
        match end {
            Some(end) => {
                let s = &self.b[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => bad(format!("{} section truncated at byte {}", self.what, self.at)),
        }
    }

    fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn i64(&mut self) -> Result<i64, Error> {
        Ok(self.u64()? as i64)
    }
    fn f32(&mut self) -> Result<f32, Error> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn f64(&mut self) -> Result<f64, Error> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn usize(&mut self) -> Result<usize, Error> {
        let v = self.u64()?;
        usize::try_from(v).or_else(|_| bad(format!("{}: value {v} exceeds usize", self.what)))
    }
    fn bool(&mut self) -> Result<bool, Error> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => bad(format!("{}: invalid bool byte {v}", self.what)),
        }
    }

    /// Remaining unread payload bytes.
    fn remaining(&self) -> usize {
        self.b.len() - self.at
    }

    /// Guards a `count × per_entry` read against lying length prefixes
    /// *before* any allocation happens.
    fn expect_at_least(&self, count: usize, per_entry: usize) -> Result<(), Error> {
        match count.checked_mul(per_entry) {
            Some(need) if need <= self.remaining() => Ok(()),
            _ => bad(format!("{}: {count} entries do not fit the section", self.what)),
        }
    }

    fn done(&self) -> Result<(), Error> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            bad(format!("{}: {} trailing bytes", self.what, self.remaining()))
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Serializes a system to container bytes. With `with_cache`, a snapshot of
/// the process-wide slice cache rides along as `CACHE_SHARD` sections.
/// Deterministic: same system + same cache contents → identical bytes.
pub(crate) fn encode(slicer: &Slicer, classifier: &Classifier, with_cache: bool) -> Vec<u8> {
    let mut w = Writer::new();
    w.add_section(kind::MODEL_CONFIG, 0, encode_model_config(classifier));
    w.add_section(kind::SLICER_CONFIG, 0, encode_slicer(slicer));
    w.add_section(kind::LABEL_VOCAB, 0, encode_label_vocab());
    if let Some(g) = classifier.gcn() {
        for (i, m) in g.conv_weights().iter().enumerate() {
            w.add_section(kind::WEIGHT_F32, i as u32, encode_matrix(m));
        }
        w.add_section(
            kind::WEIGHT_F32,
            g.conv_weights().len() as u32,
            encode_matrix(g.head_weights()),
        );
    } else if let Some(m) = classifier.mlp() {
        let (w1, w2, head) = m.weights();
        w.add_section(kind::WEIGHT_F32, 0, encode_matrix(w1));
        w.add_section(kind::WEIGHT_F32, 1, encode_matrix(w2));
        w.add_section(kind::WEIGHT_F32, 2, encode_matrix(head));
    }
    if with_cache {
        for (shard, entries) in slice_cache::snapshot().iter().enumerate() {
            if !entries.is_empty() {
                w.add_section(kind::CACHE_SHARD, shard as u32, encode_cache_shard(entries));
            }
        }
    }
    w.finish()
}

fn encode_model_config(classifier: &Classifier) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(if classifier.gcn().is_some() { 0 } else { 1 });
    e.u8(u8::from(classifier.is_trained()));
    e.u8(0); // has_quant: always 0 since int8 inference was retired
    e.u8(0); // padding, reserved
    if let Some(g) = classifier.gcn() {
        let c = g.config();
        e.usize(c.input_dim);
        e.usize(c.hidden_dim);
        e.usize(c.num_layers);
        e.u8(match c.aggregation {
            Aggregation::Mean => 0,
            Aggregation::Sum => 1,
        });
        e.usize(c.num_classes);
        e.f32(c.learning_rate);
        e.usize(c.epochs);
        e.usize(c.batch_size);
        e.u64(c.seed);
        e.u8(0); // reference_mode: always 0 since the tape became a test oracle
    } else if let Some(m) = classifier.mlp() {
        let c = m.config();
        e.usize(c.input_dim);
        e.usize(c.hidden_dim);
        e.usize(c.num_classes);
        e.f32(c.learning_rate);
        e.usize(c.epochs);
        e.usize(c.batch_size);
        e.u64(c.seed);
    }
    e.0
}

/// The canonical byte encoding of a slicer configuration: the
/// `SLICER_CONFIG` section payload, also hashed into
/// [`slice_cache::slicer_fingerprint`].
pub(crate) fn encode_slicer(slicer: &Slicer) -> Vec<u8> {
    let mut e = Enc::new();
    match slicer {
        Slicer::Sslice => e.u8(1),
        Slicer::Tslice(c) => {
            e.u8(0);
            e.f64(c.decay_indirect);
            e.f64(c.decay_stack);
            e.f64(c.decay_default);
            match c.decay_function {
                DecayFunction::Linear => {
                    e.u8(0);
                    e.f64(0.0);
                    e.f64(0.0);
                }
                DecayFunction::Exponential { scale, floor } => {
                    e.u8(1);
                    e.f64(scale);
                    e.f64(floor);
                }
            }
            e.u8(u8::from(c.cut_indirect_calls));
            e.u8(u8::from(c.lea_tracks_pointer_arith));
            e.u8(u8::from(c.trace));
            e.usize(c.max_steps);
            e.i64(c.criterion_window);
            e.u8(0); // reference_mode: retired with the runtime oracle switch
            e.u8(u8::from(c.use_call_summaries));
            e.u8(0); // use_vsa: retired with the VSA slicing kills
        }
    }
    e.0
}

fn encode_label_vocab() -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(ContainerClass::COUNT as u32);
    for class in ContainerClass::ALL {
        e.u32(class.index() as u32);
        let name = class.name().as_bytes();
        e.u32(name.len() as u32);
        e.0.extend_from_slice(name);
    }
    e.0
}

/// `[rows u32][cols u32][f32 LE × rows·cols]` — the data begins 8 bytes into
/// an 8-aligned payload, so the on-disk f32 block is always 4-aligned and
/// readable in place.
fn encode_matrix(m: &Matrix) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(m.rows() as u32);
    e.u32(m.cols() as u32);
    for &v in m.as_slice() {
        e.f32(v);
    }
    e.0
}

fn encode_var_addr(e: &mut Enc, a: VarAddr) {
    match a {
        VarAddr::Global(m) => {
            e.u64(0);
            e.u64(m.value());
            e.u64(0);
        }
        VarAddr::Stack { func, offset } => {
            e.u64(1);
            e.u64(u64::from(func.0));
            e.i64(offset);
        }
        VarAddr::Heap { site } => {
            e.u64(2);
            e.u64(site.value());
            e.u64(0);
        }
    }
}

fn encode_cache_shard(entries: &[SnapshotEntry]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(entries.len() as u32);
    e.u32(0); // padding, reserved
    for (program_fp, slicer_fp, addr, slice) in entries {
        e.u64(*program_fp);
        e.u64(*slicer_fp);
        encode_var_addr(&mut e, *addr);
        encode_var_addr(&mut e, slice.criterion);
        e.usize(slice.explored);
        e.usize(slice.steps);
        e.u32(slice.nodes.len() as u32);
        e.u32(slice.edges.len() as u32);
        for n in &slice.nodes {
            e.u32(n.inst.0);
            e.u32(u32::from(n.indirection));
            e.f64(n.faith);
        }
        for &(u, v) in &slice.edges {
            e.u32(u);
            e.u32(v);
        }
    }
    e.0
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Rebuilds a system from a validated [`Reader`], restoring any persisted
/// slice-cache shards into the process-wide cache as a side effect. The
/// returned classifier's weight matrices borrow the reader's mapped bytes
/// zero-copy.
pub(crate) fn decode(reader: &Reader) -> Result<DecodedTiara, Error> {
    let slicer = decode_slicer(required(reader, kind::SLICER_CONFIG, "slicer-config")?)?;
    decode_label_vocab(required(reader, kind::LABEL_VOCAB, "label-vocab")?)?;

    let mut mc = Dec::new(required(reader, kind::MODEL_CONFIG, "model-config")?, "model-config");
    let model_kind = mc.u8()?;
    let trained = mc.bool()?;
    mc.bool()?; // has_quant: set by older writers, ignored
    mc.u8()?; // reserved

    let classifier = match model_kind {
        0 => decode_gcn(reader, &mut mc, trained)?,
        1 => decode_mlp(reader, &mut mc, trained)?,
        k => return bad(format!("unknown model kind {k}")),
    };
    mc.done()?;

    let mut restored: Vec<SnapshotEntry> = Vec::new();
    for entry in reader.sections_of(kind::CACHE_SHARD) {
        let payload = reader
            .section(kind::CACHE_SHARD, entry.index)
            .expect("TOC entry implies the section exists");
        decode_cache_shard(payload, &mut restored)?;
    }
    let restored_cache_entries = restored.len();
    slice_cache::restore(restored);

    Ok(DecodedTiara { slicer, classifier, restored_cache_entries })
}

fn required<'r>(reader: &'r Reader, k: u32, name: &'static str) -> Result<&'r [u8], Error> {
    match reader.section(k, 0) {
        Some(p) => Ok(p),
        None => bad(format!("missing {name} section")),
    }
}

fn decode_slicer(payload: &[u8]) -> Result<Slicer, Error> {
    let mut d = Dec::new(payload, "slicer-config");
    let slicer = match d.u8()? {
        1 => Slicer::Sslice,
        0 => {
            let decay_indirect = d.f64()?;
            let decay_stack = d.f64()?;
            let decay_default = d.f64()?;
            let decay_function = match d.u8()? {
                0 => {
                    d.f64()?;
                    d.f64()?;
                    DecayFunction::Linear
                }
                1 => DecayFunction::Exponential { scale: d.f64()?, floor: d.f64()? },
                t => return bad(format!("unknown decay function tag {t}")),
            };
            let mut c = TsliceConfig {
                decay_indirect,
                decay_stack,
                decay_default,
                decay_function,
                cut_indirect_calls: d.bool()?,
                lea_tracks_pointer_arith: d.bool()?,
                trace: d.bool()?,
                max_steps: d.usize()?,
                criterion_window: d.i64()?,
                ..TsliceConfig::default()
            };
            d.bool()?; // reference_mode: set by older writers, ignored
            c.use_call_summaries = d.bool()?;
            d.bool()?; // use_vsa: set by older writers, ignored
            Slicer::Tslice(c)
        }
        t => return bad(format!("unknown slicer tag {t}")),
    };
    d.done()?;
    Ok(slicer)
}

/// The label vocabulary is pinned at save time and must match this build's
/// [`ContainerClass`] table bit for bit — a model trained against a
/// different class set must not silently relabel predictions.
fn decode_label_vocab(payload: &[u8]) -> Result<(), Error> {
    let mut d = Dec::new(payload, "label-vocab");
    let count = d.u32()? as usize;
    if count != ContainerClass::COUNT {
        return bad(format!(
            "label vocabulary has {count} classes, expected {}",
            ContainerClass::COUNT
        ));
    }
    for class in ContainerClass::ALL {
        let index = d.u32()? as usize;
        let len = d.u32()? as usize;
        let name = d.take(len)?;
        if index != class.index() || name != class.name().as_bytes() {
            return bad(format!(
                "label vocabulary mismatch at index {index}: file says {:?}, build says {:?}",
                String::from_utf8_lossy(name),
                class.name()
            ));
        }
    }
    d.done()
}

/// A zero-copy matrix view over one `WEIGHT_F32` section, shape-checked
/// against `(rows, cols)` before any infallible constructor runs.
fn decode_weight(reader: &Reader, index: u32, rows: usize, cols: usize) -> Result<Matrix, Error> {
    let what = format!("weight-f32 #{index}");
    let Some(range) = reader.section_range(kind::WEIGHT_F32, index) else {
        return bad(format!("missing {what} section"));
    };
    let payload = &reader.shared_bytes().as_bytes()[range.clone()];
    let mut d = Dec::new(payload, "weight-f32");
    let file_rows = d.u32()? as usize;
    let file_cols = d.u32()? as usize;
    if (file_rows, file_cols) != (rows, cols) {
        return bad(format!("{what} is {file_rows}×{file_cols}, model config wants {rows}×{cols}"));
    }
    let elems = rows
        .checked_mul(cols)
        .ok_or_else(|| Error::Persistence(format!("{what}: element count overflows")))?;
    if d.remaining() != elems * 4 {
        return bad(format!(
            "{what}: payload holds {} bytes, shape wants {}",
            d.remaining(),
            elems * 4
        ));
    }
    let src = F32Section::new(Arc::clone(reader.shared_bytes()), range.start + 8, elems)
        .ok_or_else(|| Error::Persistence(format!("{what}: misaligned or out-of-bounds data")))?;
    Ok(Matrix::from_shared(rows, cols, Arc::new(src), 0))
}

fn decode_gcn(reader: &Reader, mc: &mut Dec<'_>, trained: bool) -> Result<Classifier, Error> {
    let config = GcnConfig {
        input_dim: mc.usize()?,
        hidden_dim: mc.usize()?,
        num_layers: mc.usize()?,
        aggregation: match mc.u8()? {
            0 => Aggregation::Mean,
            1 => Aggregation::Sum,
            t => return bad(format!("unknown aggregation tag {t}")),
        },
        num_classes: mc.usize()?,
        learning_rate: mc.f32()?,
        epochs: mc.usize()?,
        batch_size: mc.usize()?,
        seed: mc.u64()?,
    };
    mc.bool()?; // reference_mode: set by older writers, ignored
    if config.num_layers == 0 {
        return bad("model config declares zero convolution layers");
    }
    let weight_sections = reader.sections_of(kind::WEIGHT_F32).count();
    if weight_sections != config.num_layers + 1 {
        return bad(format!(
            "{} weight sections for a {}-layer GCN (want layers + head = {})",
            weight_sections,
            config.num_layers,
            config.num_layers + 1
        ));
    }
    let mut convs = Vec::with_capacity(config.num_layers);
    let mut dim_in = config.input_dim;
    for i in 0..config.num_layers {
        convs.push(decode_weight(reader, i as u32, dim_in, config.hidden_dim)?);
        dim_in = config.hidden_dim;
    }
    let head =
        decode_weight(reader, config.num_layers as u32, config.hidden_dim, config.num_classes)?;

    let gcn = Gcn::from_parts(config, convs, head);
    Ok(Classifier::from_gcn(gcn, trained))
}

fn decode_mlp(reader: &Reader, mc: &mut Dec<'_>, trained: bool) -> Result<Classifier, Error> {
    let config = MlpConfig {
        input_dim: mc.usize()?,
        hidden_dim: mc.usize()?,
        num_classes: mc.usize()?,
        learning_rate: mc.f32()?,
        epochs: mc.usize()?,
        batch_size: mc.usize()?,
        seed: mc.u64()?,
    };
    let weight_sections = reader.sections_of(kind::WEIGHT_F32).count();
    if weight_sections != 3 {
        return bad(format!("{weight_sections} weight sections for an MLP (want 3)"));
    }
    let w1 = decode_weight(reader, 0, config.input_dim, config.hidden_dim)?;
    let w2 = decode_weight(reader, 1, config.hidden_dim, config.hidden_dim)?;
    let head = decode_weight(reader, 2, config.hidden_dim, config.num_classes)?;
    Ok(Classifier::from_mlp(Mlp::from_parts(config, w1, w2, head), trained))
}

fn decode_var_addr(d: &mut Dec<'_>) -> Result<VarAddr, Error> {
    let tag = d.u64()?;
    let a = d.u64()?;
    let b = d.u64()?;
    match tag {
        0 => Ok(VarAddr::Global(MemAddr(a))),
        1 => {
            let func = u32::try_from(a)
                .map(FuncId)
                .or_else(|_| bad(format!("cache entry: function id {a} exceeds u32")))?;
            Ok(VarAddr::Stack { func, offset: b as i64 })
        }
        2 => Ok(VarAddr::Heap { site: MemAddr(a) }),
        t => bad(format!("unknown variable-address tag {t}")),
    }
}

fn decode_cache_shard(payload: &[u8], out: &mut Vec<SnapshotEntry>) -> Result<(), Error> {
    let mut d = Dec::new(payload, "cache-shard");
    let count = d.u32()? as usize;
    if d.u32()? != 0 {
        return bad("cache-shard: nonzero padding");
    }
    // Fixed part of one entry: 2 fingerprints + 2 addresses + explored +
    // steps + node/edge counts = 88 bytes.
    d.expect_at_least(count, 88)?;
    for _ in 0..count {
        let program_fp = d.u64()?;
        let slicer_fp = d.u64()?;
        let addr = decode_var_addr(&mut d)?;
        let criterion = decode_var_addr(&mut d)?;
        let explored = d.usize()?;
        let steps = d.usize()?;
        let node_count = d.u32()? as usize;
        let edge_count = d.u32()? as usize;
        d.expect_at_least(node_count, 16)?;
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let inst = tiara_ir::InstId(d.u32()?);
            let indirection = d.u32()?;
            let indirection = u8::try_from(indirection)
                .or_else(|_| bad(format!("cache entry: indirection {indirection} exceeds u8")))?;
            let faith = d.f64()?;
            nodes.push(SliceNode { inst, faith, indirection });
        }
        d.expect_at_least(edge_count, 8)?;
        let mut edges = Vec::with_capacity(edge_count);
        for _ in 0..edge_count {
            let (u, v) = (d.u32()?, d.u32()?);
            if u as usize >= node_count || v as usize >= node_count {
                return bad(format!("cache entry: edge ({u}, {v}) outside {node_count} nodes"));
            }
            edges.push((u, v));
        }
        let slice = Slice { criterion, nodes, edges, explored, steps };
        out.push((program_fp, slicer_fp, addr, Arc::new(slice)));
    }
    d.done()
}

// ---------------------------------------------------------------------------
// Model digest
// ---------------------------------------------------------------------------

fn digest_matrix(mut h: u64, m: &Matrix) -> u64 {
    h = fnv1a64(h, &(m.rows() as u64).to_le_bytes());
    h = fnv1a64(h, &(m.cols() as u64).to_le_bytes());
    for &v in m.as_slice() {
        h = fnv1a64(h, &v.to_le_bytes());
    }
    h
}

/// A stable digest of the trained model — config plus every weight bit —
/// independent of how the weights are stored (owned vs mapped). Two systems
/// with equal digests predict bitwise identically. The config enters as its
/// canonical `MODEL_CONFIG` bytes, so the digest moves only when those bytes
/// or the weights do.
pub(crate) fn model_digest(classifier: &Classifier) -> u64 {
    let mut h = fnv1a64(FNV_OFFSET, &encode_model_config(classifier));
    if let Some(g) = classifier.gcn() {
        for m in g.conv_weights() {
            h = digest_matrix(h, m);
        }
        h = digest_matrix(h, g.head_weights());
    } else if let Some(m) = classifier.mlp() {
        let (w1, w2, head) = m.weights();
        for m in [w1, w2, head] {
            h = digest_matrix(h, m);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_container::AlignedBytes;
    use tiara_gnn::GraphSample;

    fn toy_gcn(trained_epochs: usize) -> Gcn {
        let mut gcn = Gcn::new(GcnConfig {
            input_dim: 4,
            hidden_dim: 8,
            num_layers: 2,
            aggregation: Aggregation::Mean,
            num_classes: 2,
            learning_rate: 0.01,
            epochs: trained_epochs,
            batch_size: 4,
            seed: 3,
        });
        gcn.train(&toy_graphs(4));
        gcn
    }

    fn toy_graphs(n: usize) -> Vec<GraphSample> {
        let mut out = Vec::new();
        for k in 0..n {
            let bump = (k % 3) as f32 * 0.1;
            let mut fa = Matrix::zeros(3, 4);
            for r in 0..3 {
                fa.set(r, 0, 1.0 + bump);
            }
            out.push(GraphSample::new(fa, &[(0, 1), (1, 2)], 0));
            let mut fb = Matrix::zeros(2, 4);
            for r in 0..2 {
                fb.set(r, 2, 1.0 + bump);
            }
            out.push(GraphSample::new(fb, &[(0, 1)], 1));
        }
        out
    }

    fn read(bytes: &[u8]) -> Reader {
        Reader::new(AlignedBytes::copy_from(bytes)).expect("encoder output must validate")
    }

    #[test]
    fn gcn_round_trips_bitwise_and_zero_copy() {
        let gcn = toy_gcn(5);
        let clf = Classifier::from_gcn(gcn, true);
        let bytes = encode(&Slicer::default(), &clf, false);
        let decoded = decode(&read(&bytes)).unwrap();
        assert!(decoded.classifier.is_trained());
        assert!(matches!(decoded.slicer, Slicer::Tslice(_)));
        assert_eq!(model_digest(&clf), model_digest(&decoded.classifier), "digest equality");
        let data = toy_graphs(3);
        let a: Vec<Vec<u32>> = decoded
            .classifier
            .predict_proba_batch(&data)
            .into_iter()
            .map(|r| r.into_iter().map(f32::to_bits).collect())
            .collect();
        let b: Vec<Vec<u32>> = clf
            .predict_proba_batch(&data)
            .into_iter()
            .map(|r| r.into_iter().map(f32::to_bits).collect())
            .collect();
        assert_eq!(a, b, "container round trip must be bitwise identical");
        assert!(
            decoded.classifier.mapped_weight_bytes() > 0,
            "loaded weights must borrow the mapped bytes"
        );
        assert_eq!(clf.mapped_weight_bytes(), 0, "source weights stay owned");
    }

    #[test]
    fn mlp_round_trips() {
        let mut mlp = Mlp::new(MlpConfig {
            input_dim: 4,
            hidden_dim: 8,
            num_classes: 2,
            learning_rate: 0.01,
            epochs: 3,
            batch_size: 4,
            seed: 5,
        });
        mlp.train(&toy_graphs(3));
        let clf = Classifier::from_mlp(mlp, true);
        let bytes = encode(&Slicer::Sslice, &clf, false);
        let decoded = decode(&read(&bytes)).unwrap();
        assert!(matches!(decoded.slicer, Slicer::Sslice));
        assert_eq!(model_digest(&clf), model_digest(&decoded.classifier));
        let data = toy_graphs(2);
        assert_eq!(clf.predict_batch(&data), decoded.classifier.predict_batch(&data));
    }

    #[test]
    fn slicer_knobs_survive_the_round_trip() {
        let slicer = Slicer::Tslice(TsliceConfig {
            decay_indirect: 0.25,
            decay_function: DecayFunction::Exponential { scale: 10.0, floor: 0.125 },
            cut_indirect_calls: false,
            criterion_window: -3,
            use_call_summaries: true,
            ..TsliceConfig::default()
        });
        let clf = Classifier::from_gcn(toy_gcn(1), true);
        let bytes = encode(&slicer, &clf, false);
        let decoded = decode(&read(&bytes)).unwrap();
        assert_eq!(format!("{slicer:?}"), format!("{:?}", decoded.slicer));
    }

    #[test]
    fn encoding_is_deterministic() {
        let clf = Classifier::from_gcn(toy_gcn(2), true);
        let a = encode(&Slicer::default(), &clf, false);
        let b = encode(&Slicer::default(), &clf, false);
        assert_eq!(a, b);
    }

    #[test]
    fn cache_shards_round_trip_through_the_container() {
        let crit = VarAddr::Stack { func: FuncId(7), offset: -16 };
        let slice = Slice {
            criterion: crit,
            nodes: vec![
                SliceNode { inst: tiara_ir::InstId(3), faith: 0.75, indirection: 2 },
                SliceNode { inst: tiara_ir::InstId(9), faith: 0.5, indirection: 0 },
            ],
            edges: vec![(0, 1)],
            explored: 11,
            steps: 29,
        };
        let entries: Vec<SnapshotEntry> = vec![
            (1, 2, crit, Arc::new(slice.clone())),
            (3, 4, VarAddr::Global(MemAddr(0x7440)), Arc::new(slice.clone())),
            (5, 6, VarAddr::Heap { site: MemAddr(0x99) }, Arc::new(slice)),
        ];
        let payload = encode_cache_shard(&entries);
        let mut out = Vec::new();
        decode_cache_shard(&payload, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        for ((fp_a, sfp_a, addr_a, slice_a), (fp_b, sfp_b, addr_b, slice_b)) in
            entries.iter().zip(&out)
        {
            assert_eq!((fp_a, sfp_a, addr_a), (fp_b, sfp_b, addr_b));
            assert_eq!(**slice_a, **slice_b);
        }
    }

    #[test]
    fn malformed_cache_shards_are_errors_not_panics() {
        // Lying entry count.
        let mut p = Vec::new();
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        p.extend_from_slice(&0u32.to_le_bytes());
        let mut out = Vec::new();
        assert!(matches!(decode_cache_shard(&p, &mut out), Err(Error::Persistence(_))));
        // Edge outside the node range.
        let crit = VarAddr::Global(MemAddr(1));
        let slice = Slice {
            criterion: crit,
            nodes: vec![SliceNode { inst: tiara_ir::InstId(0), faith: 1.0, indirection: 0 }],
            edges: vec![(0, 0)],
            explored: 1,
            steps: 1,
        };
        let mut payload = encode_cache_shard(&[(1, 2, crit, Arc::new(slice))]);
        let edge_at = payload.len() - 8;
        payload[edge_at..edge_at + 4].copy_from_slice(&5u32.to_le_bytes());
        assert!(matches!(decode_cache_shard(&payload, &mut out), Err(Error::Persistence(_))));
    }

    #[test]
    fn mismatched_weight_shape_is_a_persistence_error() {
        let clf = Classifier::from_gcn(toy_gcn(1), true);
        let bytes = encode(&Slicer::default(), &clf, false);
        let reader = read(&bytes);
        // Re-assemble the container with the head section swapped for conv 0:
        // shapes no longer match the config, and decode must say so politely.
        let mut w = Writer::new();
        for e in reader.toc() {
            let payload = reader.section(e.kind, e.index).unwrap().to_vec();
            let index = match (e.kind, e.index) {
                (kind::WEIGHT_F32, 0) => 2,
                (kind::WEIGHT_F32, 2) => 0,
                (_, i) => i,
            };
            w.add_section(e.kind, index, payload);
        }
        let swapped = w.finish();
        let err = decode(&read(&swapped)).unwrap_err();
        assert!(matches!(err, Error::Persistence(_)), "got {err:?}");
    }

    #[test]
    fn retired_quant_tables_are_ignored_on_load() {
        // Older writers set the has_quant byte and added tag-5 sections;
        // such files still load and serve their f32 weights.
        let clf = Classifier::from_gcn(toy_gcn(2), true);
        let reader = read(&encode(&Slicer::default(), &clf, false));
        let mut w = Writer::new();
        for e in reader.toc() {
            let mut payload = reader.section(e.kind, e.index).unwrap().to_vec();
            if e.kind == kind::MODEL_CONFIG {
                payload[2] = 1;
            }
            w.add_section(e.kind, e.index, payload);
        }
        w.add_section(5, 0, vec![0xAB; 24]);
        let decoded = decode(&read(&w.finish())).unwrap();
        assert_eq!(model_digest(&clf), model_digest(&decoded.classifier));
    }

    #[test]
    fn digest_distinguishes_models_and_ignores_storage() {
        let a = Classifier::from_gcn(toy_gcn(2), true);
        let b = Classifier::from_gcn(toy_gcn(3), true);
        assert_ne!(model_digest(&a), model_digest(&b));
        let bytes = encode(&Slicer::default(), &a, false);
        let mapped = decode(&read(&bytes)).unwrap().classifier;
        assert!(mapped.mapped_weight_bytes() > 0);
        assert_eq!(model_digest(&a), model_digest(&mapped), "owned and mapped digests agree");
    }
}
