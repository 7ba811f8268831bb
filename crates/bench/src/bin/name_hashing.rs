//! Experiment E11 — the §1.1.2 name-independence reduction: hash arbitrary
//! 64-bit names into `{0, …, n−1}` and measure the collision buckets and the
//! constant table blow-up the paper claims.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr_bench::{banner, reject_unread_env, ExperimentConfig};
use rtr_dictionary::naming::NameRegistry;

fn main() {
    let cfg = ExperimentConfig::from_env(&[256, 1024, 4096, 16384], Some(5), None);
    reject_unread_env(&cfg.env());

    banner("E11: name hashing reduction (universal hashing into {0..n-1})");
    println!(
        "{:>8} {:>6} {:>14} {:>16} {:>16} {:>10}",
        "n", "seed", "max-bucket", "collision-slots", "excess-entries", "blowup"
    );
    for &n in &cfg.sizes {
        for seed in 0..cfg.seeds() {
            // Adversarial-ish original names: clustered 64-bit values.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut names: Vec<u64> = Vec::with_capacity(n);
            let mut used = std::collections::HashSet::new();
            while names.len() < n {
                let base: u64 = rng.gen_range(0..1u64 << 40) << 20;
                let x = base + rng.gen_range(0..1024u64);
                if used.insert(x) {
                    names.push(x);
                }
            }
            let reg = NameRegistry::new(&names, seed ^ 0xdead_beef).unwrap();
            println!(
                "{:>8} {:>6} {:>14} {:>16} {:>16} {:>10.3}",
                n,
                seed,
                reg.max_bucket_size(),
                reg.collision_slots(),
                reg.excess_entries(),
                reg.blowup()
            );
        }
    }
    println!("(blowup is 1.0 by construction: every original name is stored exactly once;\n the per-slot bucket sizes above are the constant factor the paper refers to)");
}
