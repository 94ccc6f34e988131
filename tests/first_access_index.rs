//! The slicers locate `I0`, the first instruction that accesses a
//! criterion, through a per-program index (`ProgramFacts::first_access`).
//! Its definition is the scan from instruction 0 (`tiara_slice::first_access`);
//! this test holds the index to the scan on every criterion a generated
//! suite offers: each labeled variable, each address VSA discovery
//! proposes, and each one shifted across the edges of the access window.

use tiara::discovery::{discover_variables_vsa, DiscoveryConfig};
use tiara_eval::suite::build_suite;
use tiara_ir::{MemAddr, VarAddr};
use tiara_slice::{first_access, ProgramFacts};

/// `v0` moved by `delta` bytes; a heap site stays put.
fn shifted(v0: VarAddr, delta: i64) -> VarAddr {
    match v0 {
        VarAddr::Global(m) => VarAddr::Global(MemAddr(m.value().wrapping_add_signed(delta))),
        VarAddr::Stack { func, offset } => VarAddr::Stack { func, offset: offset + delta },
        VarAddr::Heap { .. } => v0,
    }
}

#[test]
fn index_matches_the_scan_on_labeled_and_discovered_addresses() {
    let cfg = DiscoveryConfig::default();
    let (mut criteria, mut accessed, mut heap) = (0usize, 0usize, 0usize);
    for bin in build_suite(1, 0.05) {
        let prog = &bin.program;
        let facts = ProgramFacts::new(prog);
        let labeled = bin.labeled_vars().map(|(addr, _)| addr);
        for v0 in labeled.chain(discover_variables_vsa(prog, &cfg)) {
            heap += usize::from(matches!(v0, VarAddr::Heap { .. }));
            criteria += 1;
            accessed += usize::from(first_access(prog, v0).is_some());
            for delta in [0, -17, -16, -15, -1, 1, 15, 16, 17] {
                let crit = shifted(v0, delta);
                let want = first_access(prog, crit);
                assert_eq!(facts.first_access(crit), want, "{} at {crit}", bin.name);
            }
        }
    }
    assert!(criteria > 1_000, "the suite offers over a thousand criteria, got {criteria}");
    assert!(accessed > criteria / 2, "most criteria are accessed ({accessed} of {criteria})");
    assert!(heap > 0, "discovery proposes heap sites");
}
