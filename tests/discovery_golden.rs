//! Pins what VSA discovery proposes on two generated corpora, so a change to
//! the discovery pass, or to how it is scheduled on the executor, shows as a
//! moved digest. The worker count comes from `TIARA_THREADS`, and CI runs
//! this file at 1 and at 4 threads against the same pins.

use tiara::discovery::{discover_variables_vsa, DiscoveryConfig};
use tiara_container::{fnv1a64, FNV_OFFSET};
use tiara_eval::discovery::build_discovery_suite;
use tiara_eval::suite::build_suite;
use tiara_synth::Binary;

/// FNV-1a64 over every proposed address, one per line in output order, with
/// a separator after each binary; and the number of addresses.
fn digest(bins: &[Binary]) -> (u64, usize) {
    let cfg = DiscoveryConfig::default();
    let (mut h, mut n) = (FNV_OFFSET, 0);
    for bin in bins {
        for addr in discover_variables_vsa(&bin.program, &cfg) {
            h = fnv1a64(h, format!("{addr}\n").as_bytes());
            n += 1;
        }
        h = fnv1a64(h, b"--\n");
    }
    (h, n)
}

#[test]
fn vsa_discovery_output_is_pinned() {
    let bench = digest(&build_suite(1, 0.05));
    let disc = digest(&build_discovery_suite(42, 0.4));
    assert_eq!(bench, (0xbd7d_50e7_f772_4075, 972), "build_suite(1, 0.05)");
    assert_eq!(disc, (0x0708_6d95_0154_a797, 272), "build_discovery_suite(42, 0.4)");
}
