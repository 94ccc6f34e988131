//! Robustness tests for the `.tc` container parser: a hostile or damaged
//! file must come back as `Error::Persistence` — never a panic, never an
//! out-of-bounds access, and never a silently wrong model.
//!
//! The fixture is a real trained container (weights + slicer config + label
//! vocab + slice-cache shards), so every section kind the writer emits is
//! on the attack surface. Deterministic tests walk every section boundary;
//! the seeded property tests fuzz truncation points, single-bit flips, and doctored TOC
//! lengths with the outer checksum re-fixed so the damage reaches the
//! structural checks behind it.

use std::sync::OnceLock;

use rand::{check, Rng};
use tiara::{ClassifierConfig, Dataset, Error, ModelKind, Slicer, Tiara, TiaraConfig};
use tiara_container::{
    fnv1a64, kind, AlignedBytes, Reader, Writer, FNV_OFFSET, HEADER_LEN, TOC_ENTRY_LEN,
};
use tiara_ir::VarAddr;
use tiara_synth::{generate, Binary, ProjectSpec, TypeCounts};

/// The program every fixture model is trained on and queried against.
fn binary() -> &'static Binary {
    static BIN: OnceLock<Binary> = OnceLock::new();
    BIN.get_or_init(|| {
        generate(&ProjectSpec {
            name: "rob".into(),
            index: 2,
            seed: 33,
            counts: TypeCounts { vector: 2, map: 1, primitive: 3, ..Default::default() },
        })
    })
}

fn trained() -> Tiara {
    let bin = binary();
    let mut t = Tiara::new(TiaraConfig::new().with_classifier(ClassifierConfig {
        epochs: 2,
        batch_size: 4,
        ..Default::default()
    }));
    t.train(&[("rob", &bin.program, &bin.debug)]).unwrap();
    t
}

fn addrs() -> Vec<VarAddr> {
    binary().debug.iter().take(3).map(|v| v.addr).collect()
}

/// One trained container, built once per test binary: a tiny model whose
/// slice cache was warmed by real predictions before the snapshot, so the
/// bytes carry `CACHE_SHARD` sections alongside the weights.
fn model_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let t = trained();
        t.predict_batch(&binary().program, &addrs()).unwrap();
        t.to_container_bytes_with_cache()
    })
}

/// The same model saved without cache shards: bytes that depend on the
/// model alone.
fn plain_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| trained().to_container_bytes())
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn toc_offset(b: &[u8]) -> usize {
    read_u64(b, 32) as usize
}

/// Recomputes the header/TOC checksum after a structural mutation, so the
/// corruption is *not* caught by the outer checksum and must instead be
/// caught by the structural validation behind it.
fn refix_header_checksum(b: &mut [u8]) {
    let toc = toc_offset(b).min(b.len());
    let sum = fnv1a64(fnv1a64(FNV_OFFSET, &b[..56]), &b[toc..]);
    b[56..64].copy_from_slice(&sum.to_le_bytes());
}

/// Applies `mutate` to a fresh copy of the fixture, re-fixes the outer
/// checksum, and returns the doctored bytes.
fn doctored(mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut b = model_bytes().to_vec();
    mutate(&mut b);
    refix_header_checksum(&mut b);
    b
}

fn is_persistence(r: &Result<Tiara, Error>) -> bool {
    matches!(r, Err(Error::Persistence(_)))
}

type Mutation = Box<dyn FnOnce(&mut Vec<u8>)>;

#[test]
fn the_fixture_parses_and_carries_every_expected_section_kind() {
    let bytes = model_bytes();
    let reader = Reader::new(AlignedBytes::copy_from(bytes)).expect("fixture must be valid");
    for k in [kind::MODEL_CONFIG, kind::SLICER_CONFIG, kind::LABEL_VOCAB, kind::WEIGHT_F32] {
        assert_eq!(
            reader.sections_of(k).count().min(1),
            1,
            "missing section kind {}",
            kind::name(k)
        );
    }
    assert!(
        reader.sections_of(kind::CACHE_SHARD).count() >= 1,
        "warm predictions must have produced cache-shard sections"
    );
    assert!(Tiara::from_container_bytes(bytes).is_ok(), "fixture must decode");
}

#[test]
fn truncation_at_every_section_boundary_is_rejected() {
    let bytes = model_bytes();
    let reader = Reader::new(AlignedBytes::copy_from(bytes)).unwrap();
    let mut cuts = vec![0, 1, 7, 8, HEADER_LEN - 1, HEADER_LEN, toc_offset(bytes), bytes.len() - 1];
    for entry in reader.toc() {
        cuts.push(entry.offset as usize);
        cuts.push((entry.offset + entry.aligned_len()) as usize);
        cuts.push((entry.offset + entry.aligned_len()) as usize - 1);
    }
    for i in 0..reader.toc().len() {
        cuts.push(toc_offset(bytes) + i * TOC_ENTRY_LEN);
    }
    for cut in cuts {
        assert!(cut < bytes.len(), "cut {cut} is not a truncation");
        let r = Tiara::from_container_bytes(&bytes[..cut]);
        assert!(is_persistence(&r), "truncation to {cut} bytes must fail with Persistence");
    }
}

#[test]
fn doctored_structure_behind_a_valid_checksum_is_rejected() {
    let bytes = model_bytes();
    let toc = toc_offset(bytes);
    // Each mutation targets one structural rule; `doctored` re-fixes the
    // outer checksum so the rule itself must fire. TOC entry layout: kind
    // at +0, index +4, offset +8, len +16, checksum +24.
    let cases: Vec<(&str, Mutation)> = vec![
        (
            "unsupported format version",
            Box::new(|b: &mut Vec<u8>| b[8..12].copy_from_slice(&99u32.to_le_bytes())),
        ),
        (
            "wrong header_len",
            Box::new(|b: &mut Vec<u8>| b[12..16].copy_from_slice(&32u32.to_le_bytes())),
        ),
        ("non-zero reserved field", Box::new(|b: &mut Vec<u8>| b[44] = 1)),
        (
            "misaligned toc_offset",
            Box::new(move |b: &mut Vec<u8>| {
                b[32..40].copy_from_slice(&((toc as u64) + 4).to_le_bytes())
            }),
        ),
        (
            "file_len larger than the file",
            Box::new(|b: &mut Vec<u8>| {
                let lied = read_u64(b, 48) + 8;
                b[48..56].copy_from_slice(&lied.to_le_bytes());
            }),
        ),
        (
            "section_count off by one",
            Box::new(|b: &mut Vec<u8>| {
                let n = u32::from_le_bytes(b[40..44].try_into().unwrap()) + 1;
                b[40..44].copy_from_slice(&n.to_le_bytes());
            }),
        ),
        (
            "misaligned section length",
            Box::new(move |b: &mut Vec<u8>| {
                let len = read_u64(b, toc + 16) + 1;
                b[toc + 16..toc + 24].copy_from_slice(&len.to_le_bytes());
            }),
        ),
        (
            "section length past the TOC",
            Box::new(move |b: &mut Vec<u8>| {
                b[toc + 16..toc + 24].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
            }),
        ),
        (
            "section offset leaving a gap",
            Box::new(move |b: &mut Vec<u8>| {
                let off = read_u64(b, toc + TOC_ENTRY_LEN + 8) + 8;
                let at = toc + TOC_ENTRY_LEN + 8;
                b[at..at + 8].copy_from_slice(&off.to_le_bytes());
            }),
        ),
        // Payload bytes are covered by the per-section checksum, which the
        // outer re-fix deliberately does not touch.
        ("flipped payload byte", Box::new(|b: &mut Vec<u8>| b[HEADER_LEN] ^= 0x40)),
    ];
    for (what, mutate) in cases {
        let r = Tiara::from_container_bytes(&doctored(mutate));
        assert!(is_persistence(&r), "{what}: must fail with Persistence");
    }
}

/// Truncation anywhere — not just at section boundaries — is rejected
/// without panicking or reading out of bounds.
#[test]
fn any_truncation_is_rejected() {
    check::cases(64, |rng| {
        let frac = rng.random_range(0.0f64..1.0);
        let bytes = model_bytes();
        let cut = ((frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let r = Tiara::from_container_bytes(&bytes[..cut]);
        assert!(is_persistence(&r), "truncation to {} bytes must fail with Persistence", cut);
    });
}

/// Every byte of the file is covered by a checksum (header+TOC by the
/// outer FNV, payloads by their per-section FNV, the checksum fields by
/// being compared), so any single-bit flip is rejected.
#[test]
fn any_single_bit_flip_is_rejected() {
    check::cases(64, |rng| {
        let frac = rng.random_range(0.0f64..1.0);
        let bit = rng.random_range(0u32..8);
        let bytes = model_bytes();
        let pos = ((frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let mut m = bytes.to_vec();
        m[pos] ^= 1 << bit;
        let r = Tiara::from_container_bytes(&m);
        assert!(is_persistence(&r), "bit {} of byte {} flipped: must fail", bit, pos);
    });
}

/// Arbitrary doctored section lengths (with the outer checksum re-fixed
/// so they reach the structural checks) never panic, and any actual
/// change is rejected — by the tiling rules when the padded length
/// moves, or by the per-section decoders when it does not.
#[test]
fn doctored_section_lengths_are_rejected() {
    check::cases(64, |rng| {
        let entry_frac = rng.random_range(0.0f64..1.0);
        let newlen = rng.random_range(0u64..1 << 48);
        let bytes = model_bytes();
        let toc = toc_offset(bytes);
        let entries = (bytes.len() - toc) / TOC_ENTRY_LEN;
        let at =
            toc + ((entry_frac * entries as f64) as usize).min(entries - 1) * TOC_ENTRY_LEN + 16;
        let old = read_u64(bytes, at);
        let m = doctored(|b| b[at..at + 8].copy_from_slice(&newlen.to_le_bytes()));
        let r = Tiara::from_container_bytes(&m);
        if newlen == old {
            assert!(r.is_ok(), "unchanged length must still decode");
        } else {
            assert!(is_persistence(&r), "len {} -> {} at TOC byte {}: must fail", old, newlen, at);
        }
    });
}

/// A default-config model's `.tc` bytes and content digest. The bytes were
/// captured from the writer that still had the `reference_mode` and
/// `use_vsa` options: retiring them changed no byte of the file. The digest
/// was re-captured when it switched from the config's `Debug` text to its
/// canonical `MODEL_CONFIG` bytes.
#[test]
fn default_model_bytes_and_digest_are_pinned() {
    let bytes = plain_bytes();
    assert_eq!(fnv1a64(FNV_OFFSET, bytes), 0x9e00_9dfa_976a_af13, "the .tc bytes moved");
    let t = Tiara::from_container_bytes(bytes).unwrap();
    assert_eq!(t.model_digest(), 0x175a_298a_f47e_52a1, "the model digest moved");
}

/// The edge-blind MLP baseline's `.tc` bytes, content digest and
/// predicted probabilities, pinned so that any change to how the baseline
/// trains, persists or predicts shows up bit for bit.
#[test]
fn mlp_model_bytes_and_digest_are_pinned() {
    let bin = generate(&ProjectSpec {
        name: "mlp".into(),
        index: 1,
        seed: 7,
        counts: TypeCounts { list: 3, vector: 4, map: 3, primitive: 6, ..Default::default() },
    });
    let mut t = Tiara::new(TiaraConfig::new().with_classifier(ClassifierConfig {
        model: ModelKind::Mlp,
        epochs: 4,
        batch_size: 4,
        ..Default::default()
    }));
    t.train(&[("mlp", &bin.program, &bin.debug)]).unwrap();
    let bytes = t.to_container_bytes();
    let graphs = Dataset::from_binary(&bin.program, &bin.debug, "mlp", &Slicer::default()).graphs();
    let proba = |t: &Tiara| {
        let rows = t.classifier().predict_proba_batch(&graphs);
        rows.iter().flatten().fold(FNV_OFFSET, |h, p| fnv1a64(h, &p.to_bits().to_le_bytes()))
    };
    let loaded = Tiara::from_container_bytes(&bytes).unwrap();
    assert_eq!(fnv1a64(FNV_OFFSET, &bytes), 0x04a8_617d_f4cc_3dcc, "the MLP .tc bytes moved");
    assert_eq!(t.model_digest(), 0xfabc_6745_0b3b_ae92, "the MLP model digest moved");
    assert_eq!(loaded.model_digest(), t.model_digest(), "the loaded MLP digest differs");
    assert_eq!(proba(&t), 0x3ba3_a661_0024_4549, "the MLP probabilities moved");
    assert_eq!(proba(&loaded), proba(&t), "the loaded MLP predicts different bits");
}

/// `bytes` re-encoded with the byte `from_end` positions before the end of
/// section `k`'s payload set to `v` (every checksum recomputed).
fn with_config_byte(bytes: &[u8], k: u32, from_end: usize, v: u8) -> Vec<u8> {
    let reader = Reader::new(AlignedBytes::copy_from(bytes)).unwrap();
    let mut w = Writer::new();
    for e in reader.toc() {
        let mut payload = reader.section(e.kind, e.index).unwrap().to_vec();
        if e.kind == k {
            let at = payload.len() - from_end;
            assert_eq!(payload[at], 0, "retired bytes are written as 0");
            payload[at] = v;
        }
        w.add_section(e.kind, e.index, payload);
    }
    w.finish()
}

fn prob_bits(t: &Tiara) -> Vec<u32> {
    let preds = t.predict_batch(&binary().program, &addrs()).unwrap();
    preds.iter().flat_map(|p| p.probs.iter().map(|x| x.to_bits())).collect()
}

/// The retired option bytes: the model config's trailing `reference_mode`
/// and the slicer config's `reference_mode` and `use_vsa` (third-last and
/// last). Files that set them still load and answer byte-identically;
/// anything but a bool is corruption.
#[test]
fn retired_option_bytes_are_validated_then_ignored() {
    let bytes = plain_bytes();
    let want = prob_bits(&Tiara::from_container_bytes(bytes).unwrap());
    for (k, from_end, what) in [
        (kind::MODEL_CONFIG, 1, "model reference_mode"),
        (kind::SLICER_CONFIG, 3, "slicer reference_mode"),
        (kind::SLICER_CONFIG, 1, "use_vsa"),
    ] {
        let set = Tiara::from_container_bytes(&with_config_byte(bytes, k, from_end, 1))
            .unwrap_or_else(|e| panic!("{what} = 1 must load: {e}"));
        assert_eq!(prob_bits(&set), want, "{what} = 1 must not change any answer");
        let bad = Tiara::from_container_bytes(&with_config_byte(bytes, k, from_end, 2));
        assert!(is_persistence(&bad), "{what} = 2 must be rejected");
    }
}
