//! Model test for the inline value-set representation.
//!
//! `Vsv::Set` holds a region-sorted inline array of at most `MAX_REGIONS`
//! pairs. The oracle here is the representation it replaced: a
//! `BTreeMap<Region, StridedInterval>` that grows freely and collapses to ⊤
//! once it holds more than `MAX_REGIONS` regions. Random sequences of
//! `join` (with and without widening), `plus` and `binop` must give the same
//! value sets, and the same `changed` flags, under both.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{check, Rng};
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use tiara_dataflow::vsa::MAX_REGIONS;
use tiara_dataflow::{Region, StridedInterval, Vsv};
use tiara_ir::{BinOp, FuncId, InstId};

/// The map-based value set: ⊤, or a free-growing region map.
#[derive(Debug, Clone, PartialEq)]
enum Model {
    Top,
    Set(BTreeMap<Region, StridedInterval>),
}

impl Model {
    fn of(v: &Vsv) -> Model {
        match v.regions() {
            None => Model::Top,
            Some(m) => {
                let pairs = m.as_slice();
                assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "unsorted regions: {v}");
                assert!(pairs.len() <= MAX_REGIONS);
                Model::Set(pairs.iter().copied().collect())
            }
        }
    }

    fn offset_in(region: Region, off: i64) -> Model {
        Model::Set(BTreeMap::from([(region, StridedInterval::singleton(off))]))
    }

    fn capped(m: BTreeMap<Region, StridedInterval>) -> Model {
        if m.len() > MAX_REGIONS {
            Model::Top
        } else {
            Model::Set(m)
        }
    }

    fn join(&mut self, other: &Model, widen: bool) -> bool {
        match (&mut *self, other) {
            (Model::Top, _) => false,
            (_, Model::Top) => {
                *self = Model::Top;
                true
            }
            (Model::Set(mine), Model::Set(theirs)) => {
                let mut changed = false;
                for (r, si) in theirs {
                    match mine.get_mut(r) {
                        Some(old) => {
                            let j = if widen { old.widen(*si) } else { old.join(*si) };
                            if j != *old {
                                *old = j;
                                changed = true;
                            }
                        }
                        None => {
                            mine.insert(*r, *si);
                            changed = true;
                        }
                    }
                }
                if mine.len() > MAX_REGIONS {
                    *self = Model::Top;
                }
                changed
            }
        }
    }

    fn plus(&self, c: i64) -> Model {
        match self {
            Model::Top => Model::Top,
            Model::Set(_) if c == 0 => self.clone(),
            Model::Set(m) => Model::Set(
                m.iter().map(|(r, si)| (*r, *si + StridedInterval::singleton(c))).collect(),
            ),
        }
    }

    fn binop(op: BinOp, a: &Model, b: &Model) -> Model {
        let (Model::Set(ma), Model::Set(mb)) = (a, b) else { return Model::Top };
        if ma.is_empty() || mb.is_empty() {
            return Model::Set(BTreeMap::new());
        }
        let mut out: BTreeMap<Region, StridedInterval> = BTreeMap::new();
        for (ra, ia) in ma {
            for (rb, ib) in mb {
                let (region, si) = match (op, ra, rb) {
                    (BinOp::Add, Region::Global, r) => (*r, *ia + *ib),
                    (BinOp::Add, r, Region::Global) => (*r, *ia + *ib),
                    (BinOp::Sub, r, Region::Global) => (*r, *ia - *ib),
                    (BinOp::Sub, r1, r2) if r1 == r2 => (Region::Global, *ia - *ib),
                    (BinOp::Mul, Region::Global, Region::Global) => (Region::Global, *ia * *ib),
                    (
                        BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr,
                        Region::Global,
                        Region::Global,
                    ) => match (ia.as_singleton(), ib.as_singleton()) {
                        (Some(x), Some(y)) => {
                            (Region::Global, StridedInterval::singleton(op.apply(x, y)))
                        }
                        _ => return Model::Top,
                    },
                    _ => return Model::Top,
                };
                match out.get_mut(&region) {
                    Some(old) => *old = old.join(si),
                    None => {
                        out.insert(region, si);
                    }
                }
            }
        }
        Model::capped(out)
    }
}

/// Six regions, so joins can outgrow `MAX_REGIONS`.
const REGIONS: [Region; 6] = [
    Region::Global,
    Region::Frame(FuncId(0)),
    Region::Frame(FuncId(1)),
    Region::Frame(FuncId(2)),
    Region::Heap(InstId(3)),
    Region::Heap(InstId(9)),
];

const OPS: [BinOp; 8] =
    [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::Xor, BinOp::Shl, BinOp::Shr];

fn any_region(rng: &mut StdRng) -> Region {
    REGIONS[rng.random_range(0..REGIONS.len())]
}

fn any_offset(rng: &mut StdRng) -> i64 {
    if rng.random_bool(0.1) {
        rng.random_range(-(1i64 << 40)..(1i64 << 40))
    } else {
        rng.random_range(-64i64..=64)
    }
}

/// A leaf value set, built both ways.
fn any_atom(rng: &mut StdRng) -> (Vsv, Model) {
    match rng.random_range(0..10) {
        0 => (Vsv::Top, Model::Top),
        1 => (Vsv::bottom(), Model::Set(BTreeMap::new())),
        _ => {
            let (r, off) = (any_region(rng), any_offset(rng));
            (Vsv::offset_in(r, off), Model::offset_in(r, off))
        }
    }
}

fn hash_of(v: &Vsv) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

#[test]
fn random_operation_sequences_match_the_map_model() {
    check::cases(512, |rng| {
        let mut pool: Vec<(Vsv, Model)> = (0..4).map(|_| any_atom(rng)).collect();
        for step in 0..32 {
            let i = rng.random_range(0..pool.len());
            let j = rng.random_range(0..pool.len());
            match rng.random_range(0..6) {
                0 => pool.push(any_atom(rng)),
                1..=3 => {
                    let widen = rng.random_bool(0.3);
                    let (theirs, model_theirs) = pool[j].clone();
                    let (mine, model) = &mut pool[i];
                    let changed = mine.join(&theirs, widen);
                    let model_changed = model.join(&model_theirs, widen);
                    assert_eq!(changed, model_changed, "step {step}: join changed flag");
                    assert_eq!(Model::of(mine), *model, "step {step}: join (widen {widen})");
                }
                4 => {
                    let c = if rng.random_bool(0.2) { 0 } else { any_offset(rng) };
                    let (v, m) = (pool[i].0.plus(c), pool[i].1.plus(c));
                    assert_eq!(Model::of(&v), m, "step {step}: plus {c}");
                    pool.push((v, m));
                }
                _ => {
                    let op = OPS[rng.random_range(0..OPS.len())];
                    let v = Vsv::binop(op, &pool[i].0, &pool[j].0);
                    let m = Model::binop(op, &pool[i].1, &pool[j].1);
                    assert_eq!(Model::of(&v), m, "step {step}: binop {op:?}");
                    pool.push((v, m));
                }
            }
        }
    });
}

#[test]
fn a_fifth_region_collapses_to_top() {
    let mut v = Vsv::bottom();
    let mut m = Model::Set(BTreeMap::new());
    for (k, r) in REGIONS.iter().rev().take(MAX_REGIONS + 1).enumerate() {
        let changed = v.join(&Vsv::offset_in(*r, 8), false);
        assert!(changed && m.join(&Model::offset_in(*r, 8), false));
        assert_eq!(Model::of(&v), m);
        if k < MAX_REGIONS {
            assert_eq!(v.regions().map(|m| m.len()), Some(k + 1), "{v}");
        } else {
            assert!(v.is_top(), "{v}");
        }
    }
    // A binop whose region products need a fifth region is ⊤ as well.
    let mut four = Vsv::bottom();
    for r in &REGIONS[1..=MAX_REGIONS] {
        four.join(&Vsv::offset_in(*r, 0), false);
    }
    let mut two = Vsv::constant(0);
    two.join(&Vsv::constant(4), false);
    assert_eq!(Vsv::binop(BinOp::Add, &four, &two).regions().map(|m| m.len()), Some(4));
    let mut global = four;
    global.join(&Vsv::constant(1), false);
    assert!(global.is_top(), "five regions");
}

#[test]
fn insertion_order_does_not_change_the_set() {
    check::cases(256, |rng| {
        let mut regions = REGIONS.to_vec();
        regions.shuffle(rng);
        regions.truncate(rng.random_range(0..=MAX_REGIONS));
        // One interval per region: the join of two points.
        let atoms: Vec<Vsv> = regions
            .iter()
            .map(|&r| {
                let mut v = Vsv::offset_in(r, any_offset(rng));
                v.join(&Vsv::offset_in(r, any_offset(rng)), false);
                v
            })
            .collect();
        let build = |order: &[usize]| {
            let mut v = Vsv::bottom();
            for &k in order {
                v.join(&atoms[k], false);
            }
            v
        };
        let mut order: Vec<usize> = (0..atoms.len()).collect();
        let first = build(&order);
        order.shuffle(rng);
        let second = build(&order);
        assert_eq!(first, second);
        assert_eq!(hash_of(&first), hash_of(&second));
        assert_eq!(first.to_string(), second.to_string());
        assert_eq!(first.regions().map(|m| m.len()), Some(atoms.len()));
    });
}
