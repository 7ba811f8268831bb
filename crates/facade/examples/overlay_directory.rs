//! Overlay directory lookup — the peer-to-peer motivation from the paper's
//! introduction and conclusions (§6): nodes join an overlay with *their own*
//! 64-bit identifiers (no coordinator assigns topology-aware addresses), and
//! lookups must reach a peer and return an acknowledgment knowing only that
//! identifier.
//!
//! The example wires together the §1.1.2 hashing reduction (arbitrary ids →
//! `{0..n−1}`), the ExStretch prefix-matching scheme (the same idea Pastry /
//! Tapestry use for object location, as the paper notes), and the simulator.
//!
//! Run with: `cargo run --release --example overlay_directory`

use compact_roundtrip_routing::dictionary::naming::NameRegistry;
use compact_roundtrip_routing::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An overlay of 512 peers on a scale-free-ish topology (preferential
    // attachment models AS-level / unstructured overlay graphs).
    let n = 512usize;
    let g = generators::preferential_attachment(n, 4, 11)?;
    let m = DistanceMatrix::build(&g);
    println!("overlay: {g}");

    // Every peer chose its own 64-bit identifier.
    let mut rng = StdRng::seed_from_u64(3);
    let mut peer_ids: Vec<u64> = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    while peer_ids.len() < n {
        let id = rng.gen::<u64>();
        if seen.insert(id) {
            peer_ids.push(id);
        }
    }

    // The §1.1.2 reduction: hash the self-chosen identifiers into {0..n-1}.
    // The resulting slot of peer i becomes its TINN name.
    let registry = NameRegistry::new(&peer_ids, 99)?;
    println!(
        "hashed {} peer ids into {} slots: max bucket {}, {} colliding slots",
        n,
        registry.slot_count(),
        registry.max_bucket_size(),
        registry.collision_slots()
    );
    // Peers whose identifiers collide share a dictionary slot; for naming we
    // resolve the collision by probing to the next free slot (the same
    // indirection the paper's bucket argument provides).
    let mut taken = vec![false; n];
    let slots: Vec<NodeName> = (0..n)
        .map(|i| {
            let mut s = registry.slot(peer_ids[i]).expect("registered").index();
            while taken[s] {
                s = (s + 1) % n;
            }
            taken[s] = true;
            NodeName(s as u32)
        })
        .collect();
    let names = NamingAssignment::from_names(slots);

    // Prefix-matching directory scheme with k = 3 digits over the compact
    // tree-cover substrate.
    let substrate = TreeCoverScheme::build(&g, &m, 2);
    let scheme = ExStretch::build(&g, &m, &names, substrate, ExStretchParams::with_k(3));

    // A burst of lookups: peer `s` resolves the identifier of peer `t` and
    // waits for the acknowledgment.
    let sim = Simulator::new(&g);
    let mut total_stretch = 0.0;
    let mut worst: f64 = 0.0;
    let lookups = 400;
    for i in 0..lookups {
        let s = NodeId((i * 37 % n as u32 as usize) as u32);
        let t = NodeId(((i * 211 + 13) % n) as u32);
        if s == t {
            continue;
        }
        let report = sim.roundtrip_brief(&scheme, s, t, names.name_of(t))?;
        let stretch = report.stretch(&m);
        total_stretch += stretch;
        worst = worst.max(stretch);
        if i < 5 {
            println!(
                "lookup {:>2}: peer {} resolves id {:#018x} -> {} hops, stretch {:.2}",
                i,
                s,
                peer_ids[t.index()],
                report.total_hops(),
                stretch
            );
        }
    }
    println!(
        "\n{} lookups: average stretch {:.3}, worst {:.3}, per-node table at most {} entries",
        lookups,
        total_stretch / lookups as f64,
        worst,
        (0..n).map(|i| scheme.table_stats(NodeId(i as u32)).entries).max().unwrap()
    );
    Ok(())
}
