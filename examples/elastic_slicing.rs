//! Elastic Parameter Slicing in action.
//!
//! Shows the byte imbalance of PS-Lite's default contiguous slicing on a
//! skewed model, the balance EPS achieves, and the degraded-mode remap a
//! live cluster's supervisor applies when a server dies for good — the
//! survivors keep their ids and slices, and only the dead server's values
//! move.
//!
//! Run with: `cargo run --release --example elastic_slicing`

use std::collections::BTreeSet;

use fluentps::core::eps::{DefaultSlicer, EpsSlicer, ParamSpec, Slicer};

fn main() {
    // A ResNet-56-shaped inventory: one dominant tensor plus many small ones.
    let mut params = vec![ParamSpec {
        key: 0,
        len: 300_000,
    }];
    for k in 1..56 {
        params.push(ParamSpec {
            key: k,
            len: 10_000,
        });
    }
    let servers = 8;

    let default_map = DefaultSlicer.slice(&params, servers);
    let eps = EpsSlicer { max_chunk: 16_384 };
    let eps_map = eps.slice(&params, servers);

    println!(
        "model: {} tensors, {} values total\n",
        params.len(),
        default_map.total_values()
    );
    println!("default slicing loads: {:?}", default_map.server_loads());
    println!(
        "default imbalance: {:.2} (max/mean)",
        default_map.imbalance()
    );
    println!("EPS loads:            {:?}", eps_map.server_loads());
    println!("EPS imbalance:        {:.2}\n", eps_map.imbalance());

    // Server 3 dies for good: its slices move onto the seven survivors.
    let dead = BTreeSet::from([3]);
    let (remapped, moved) = eps.remap_dead(&eps_map, &dead);
    let survivors: Vec<usize> = (0..servers)
        .filter(|m| !dead.contains(m))
        .map(|m| remapped.server_loads()[m as usize])
        .collect();
    let imbalance = *survivors.iter().max().expect("survivors") as f64 * survivors.len() as f64
        / remapped.total_values() as f64;
    println!("server 3 dead for good");
    println!(
        "remapped onto the {} survivors, moved {moved} values ({:.1}% of the model)",
        survivors.len(),
        100.0 * moved as f64 / remapped.total_values() as f64
    );
    println!("post-remap loads: {:?}", remapped.server_loads());
    println!("post-remap survivor imbalance: {imbalance:.2}");

    // Measured: default 3.39, EPS 1.06, survivors after the remap 1.02.
    assert!(default_map.imbalance() > 3.0);
    assert!(eps_map.imbalance() < 1.1);
    assert_eq!(moved, eps_map.server_loads()[3]);
    assert!(imbalance < 1.05);
}
