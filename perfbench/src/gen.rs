//! Seeded inputs of the four workloads.
//!
//! Every instance is derived from the run's `--seed` through a
//! splitmix64 mix of `(seed, stream, index)`, so the same seed gives the
//! same request sequence and the program only ever sees the generated
//! instances. Streams keep the workloads, the warm-up and the pools
//! apart.

use pcmax_core::Instance;

/// Which sequence an instance belongs to.
#[derive(Clone, Copy)]
pub enum Stream {
    PtasPaper = 1,
    ColdFresh = 2,
    HotPool = 3,
    ClusterPool = 4,
    ClusterFresh = 5,
    WarmUp = 6,
}

/// splitmix64 finaliser.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The generator seed of instance `index` of `stream` under run seed `seed`.
pub fn instance_seed(seed: u64, stream: Stream, index: u64) -> u64 {
    mix(mix(mix(seed) ^ stream as u64) ^ index)
}

/// The paper's table-size buckets (Tables I–III), each as the band
/// ±25% around it that σ at `T = LB` must fall in.
const S3456: Option<(u64, u64)> = Some((2_592, 4_320));
const S8640: Option<(u64, u64)> = Some((6_480, 10_800));
const S12960: Option<(u64, u64)> = Some((9_720, 16_200));

/// Slots of one ptas-paper round: the `instance_with_scale` scale and
/// the bucket its DP table must fall in. Solve time tracks σ closely, so
/// drawing the large tables from the paper's buckets, rather than from a
/// scale's whole range, keeps the tail of the latency distribution alike
/// from seed to seed. Unbucketed scale-0 solves make half the count, so
/// a run completes enough solves for a p99.
pub const PTAS_ROUND: [(usize, Option<(u64, u64)>); 8] = [
    (0, None),
    (1, S3456),
    (0, None),
    (1, S8640),
    (0, None),
    (1, S3456),
    (0, None),
    (2, S12960),
];

/// Instance `i` of ptas-paper round `round`: the first candidate of the
/// slot's scale whose table at `T = LB` lies in the slot's bucket.
pub fn ptas_instance(seed: u64, round: u64, i: usize) -> Instance {
    let (scale, bucket) = PTAS_ROUND[i];
    let slot = round * PTAS_ROUND.len() as u64 + i as u64;
    (0..)
        .map(|j| {
            let s = instance_seed(seed, Stream::PtasPaper, (slot << 16) + j);
            pcmax_gpu::synth::instance_with_scale(s, scale)
        })
        .find(|inst| bucket.is_none_or(|(lo, hi)| (lo..=hi).contains(&table_size_at_lb(inst))))
        .expect("every bucket is reachable from its scale")
}

/// σ = Π(nᵢ + 1) of the PTAS rounding (k = 4) at `T = LB`: jobs above
/// `T/4` are long and fall in classes `⌊t / ⌊T/16⌋⌋`.
fn table_size_at_lb(inst: &Instance) -> u64 {
    let m = inst.machines() as u64;
    let lb = inst
        .times()
        .iter()
        .sum::<u64>()
        .div_ceil(m)
        .max(inst.max_time());
    let step = (lb / 16).max(1);
    let mut classes = std::collections::BTreeMap::new();
    for &t in inst.times().iter().filter(|&&t| t > lb / 4) {
        *classes.entry(t / step).or_insert(0u64) += 1;
    }
    classes.values().map(|c| c + 1).product()
}

/// A never-repeated scale-0 instance (24 jobs, 8 machines, times in [30, 100]).
pub fn fresh_instance(seed: u64, stream: Stream, index: u64) -> Instance {
    pcmax_gpu::synth::instance_with_scale(instance_seed(seed, stream, index), 0)
}

/// Size of the serve-hot pool.
pub const HOT_POOL: usize = 128;

/// The serve-hot pool: 40 uniform jobs in [1, 100] on 6 machines.
pub fn hot_pool(seed: u64) -> Vec<Instance> {
    (0..HOT_POOL as u64)
        .map(|i| pcmax_core::gen::uniform(instance_seed(seed, Stream::HotPool, i), 40, 6, 1, 100))
        .collect()
}

/// Size of the cluster-mixed pool.
pub const CLUSTER_POOL: usize = 128;

/// The cluster-mixed pool of scale-0 instances.
pub fn cluster_pool(seed: u64) -> Vec<Instance> {
    (0..CLUSTER_POOL as u64)
        .map(|i| fresh_instance(seed, Stream::ClusterPool, i))
        .collect()
}

/// The `solve` line for `inst` with the server's default ε and deadline.
pub fn solve_line(inst: &Instance) -> String {
    let times: Vec<String> = inst.times().iter().map(u64::to_string).collect();
    format!("solve {} - - {}", inst.machines(), times.join(","))
}
