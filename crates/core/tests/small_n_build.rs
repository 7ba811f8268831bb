//! Regression coverage for the small-n sparse-suite panic ("Lemma 1
//! guarantees a holder in every neighborhood" in `StretchSix::build_with_order`
//! at e.g. n = 300, seed 7): a rounded-up address space (`q^k > n`) has
//! blocks with no existing member, and the block-distribution repair pass
//! used to skip their prefixes — leaving unlucky small, density-1.0
//! instances without a holder and panicking the build.  The repair pass now
//! walks the unfiltered prefix set, so sparse suites must build (and route)
//! at any small n × seed.

use rtr_core::naming::NamingAssignment;
use rtr_core::{SparseSchemeSuite, SparseSuiteParams};
use rtr_graph::generators::strongly_connected_gnp;
use rtr_graph::NodeId;
use rtr_metric::LazyDijkstraOracle;
use rtr_sim::Simulator;

#[test]
fn sparse_suite_builds_and_routes_at_small_n_with_empty_blocks() {
    // n = 30 (q = 6, block 5 empty) and n = 40 (q = 7, block 6 empty):
    // rounded-up spaces whose last block holds no name — the configuration
    // the Lemma 1 lookup used to panic on.  Several seeds so the randomized
    // phase can't mask a repair-pass gap.
    for n in [30usize, 40] {
        for seed in [7u64, 11, 23] {
            let g = strongly_connected_gnp(n, 0.2, seed).unwrap();
            let oracle = LazyDijkstraOracle::new(&g, 16);
            let names = NamingAssignment::random(n, seed ^ 0x517e);
            let suite = SparseSchemeSuite::build(&g, &oracle, &names, SparseSuiteParams::default());
            let node_names = names.to_names();
            let sim = Simulator::new(&g);
            for src in 0..n {
                let dst = (src + 1 + seed as usize) % n;
                let (src, dst) = (NodeId::from_index(src), NodeId::from_index(dst));
                sim.roundtrip_brief(&suite.stretch6, src, dst, node_names[dst.index()])
                    .unwrap_or_else(|e| panic!("n={n} seed={seed} {src}->{dst}: {e}"));
            }
        }
    }
}
