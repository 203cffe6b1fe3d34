//! Route planning for a city-wide snow-plough / salt-spreading fleet — the
//! transportation motivation of the paper's introduction (refs [2, 3]).
//!
//! A regular street grid (modelled as a torus so every intersection has four
//! streets and the network is Eulerian) is split into districts, one per
//! depot, with the BFS region-growing partitioner — plugged straight into the
//! `EulerPipeline` builder. The pipeline computes a single closed route that
//! covers every street exactly once; the example then reports per-district
//! statistics and the plough's route length.
//!
//! Run with: `cargo run --release --example city_snow_plow`

use euler_circuit::prelude::*;

fn main() {
    // 40x40 intersections, 3200 street segments, 8 depots.
    let rows = 40;
    let cols = 40;
    let districts = 8;
    let city = synthetic::torus_grid(rows, cols);
    println!("Street network: {} intersections, {} street segments", city.num_vertices(), city.num_edges());
    is_eulerian(&city).expect("a 4-regular street grid is Eulerian");

    // Plan the plough route: BFS region growing gives compact, connected
    // districts; the §5 deferred strategy keeps depot memory low.
    let run = EulerPipeline::builder()
        .graph(&city)
        .partitioner(BfsPartitioner::new(districts))
        .config(EulerConfig::improved())
        .verify(true)
        .build()
        .unwrap()
        .run()
        .unwrap();

    let assignment = &run.partition.assignment;
    let quality = PartitionQuality::evaluate(&city, assignment);
    println!(
        "Districts: {} ({} partitioner) | streets crossing district borders: {} ({:.1}% of all) | imbalance {:.1}%",
        districts,
        run.partition.partitioner,
        quality.cut_edges,
        quality.cut_fraction * 100.0,
        quality.imbalance * 100.0
    );

    let route = run.circuit.result.circuit().expect("connected street network");
    println!(
        "Computed a closed route covering all {} segments in {} BSP supersteps",
        route.len(),
        run.merge.supersteps
    );

    // Distance: every street segment is one block; the route length equals the
    // number of segments (the optimum — no deadheading needed on an Eulerian
    // network, which is the point of the Chinese-postman connection).
    println!("Route length: {} blocks (optimal: {})", route.len(), city.num_edges());

    // Which district does the route spend its time in?
    let mut per_district = vec![0u64; districts as usize];
    for step in route {
        per_district[assignment.partition_of(step.from).index()] += 1;
    }
    for (d, blocks) in per_district.iter().enumerate() {
        println!("  district {d}: {blocks} blocks entered from its intersections");
    }

    // Show the first few turns of the route.
    let preview: Vec<String> =
        route.iter().take(12).map(|s| format!("({},{})", s.from.0 / cols, s.from.0 % cols)).collect();
    println!("Route preview (row,col): {} ...", preview.join(" -> "));

    verify_circuit(&city, route).unwrap();
    println!("Route verified: every street ploughed exactly once, ends at the start depot. ✓");
}
