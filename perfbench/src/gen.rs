//! Seeded input generators: every workload input is a pure function of
//! the benchmark's `--seed`.

use espresso_json::Json;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over ranks `0..n`: rank `k` is drawn with weight `1 / (k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n >= 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Open-loop arrival offsets in seconds: `count` arrivals on
/// `[0, seconds)`, arrival `k` drawn uniformly from the middle half of
/// the `k`-th of `count` equal slots. Consecutive gaps stay between half
/// and one and a half slots, so an arrival rarely queues behind the
/// previous one's work; fixing the count keeps every run's sample size,
/// and so its tail level, the same.
pub fn jittered_arrivals(rng: &mut Rng, count: usize, seconds: f64) -> Vec<f64> {
    let slot = seconds / count.max(1) as f64;
    (0..count)
        .map(|k| (k as f64 + 0.25 + 0.5 * rng.unit()) * slot)
        .collect()
}

/// Re-spells a request document: every object's keys in a shuffled
/// order, and each optional top-level default (`health`, `faults`,
/// `robust`) either omitted or written out at its default. The result
/// canonicalizes to the same key as the input.
pub fn respell(rng: &mut Rng, doc: &Json, defaults: &[(&str, Json)]) -> String {
    let mut top = match doc {
        Json::Obj(pairs) => pairs.clone(),
        other => return other.render(),
    };
    for (key, value) in defaults {
        if rng.unit() < 0.5 && !top.iter().any(|(k, _)| k == key) {
            top.push(((*key).to_string(), value.clone()));
        }
    }
    shuffle_keys(rng, &Json::Obj(top)).render()
}

fn shuffle_keys(rng: &mut Rng, v: &Json) -> Json {
    match v {
        Json::Obj(pairs) => {
            let mut pairs: Vec<(String, Json)> = pairs
                .iter()
                .map(|(k, v)| (k.clone(), shuffle_keys(rng, v)))
                .collect();
            rng.shuffle(&mut pairs);
            Json::Obj(pairs)
        }
        Json::Arr(items) => Json::Arr(items.iter().map(|v| shuffle_keys(rng, v)).collect()),
        other => other.clone(),
    }
}

/// One fleet health delta, before it is stamped with its epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaDraw {
    /// Offset from the start of the stream, seconds.
    pub at: f64,
    /// Cluster index.
    pub cluster: usize,
    /// Inter-link degradation factor (1.0 is nominal).
    pub inter_factor: f64,
    /// Rank lost by this delta.
    pub lost: Option<usize>,
    /// Rank re-joined by this delta.
    pub rejoined: Option<usize>,
}

/// Inter-link degradation levels a delta reports (quantized so that
/// re-plans recur on shared keys).
pub const DEGRADATION_LEVELS: [f64; 4] = [1.0, 1.5, 2.0, 3.0];

/// An open-loop stream of `count` deltas over `clusters` clusters of
/// `workers` ranks each, [`jittered_arrivals`] within `seconds`. Each delta
/// moves one cluster to a quantized degradation level and, with
/// probability `churn`, loses one live rank or re-joins one lost rank.
/// A cluster never drops below one live rank.
pub fn delta_stream(
    rng: &mut Rng,
    clusters: usize,
    workers: usize,
    count: usize,
    seconds: f64,
    churn: f64,
) -> Vec<DeltaDraw> {
    let mut lost: Vec<Vec<usize>> = vec![Vec::new(); clusters];
    jittered_arrivals(rng, count, seconds)
        .into_iter()
        .map(|at| {
            let cluster = rng.below(clusters);
            let inter_factor = DEGRADATION_LEVELS[rng.below(DEGRADATION_LEVELS.len())];
            let (mut gone, mut back) = (None, None);
            if rng.unit() < churn {
                let down = &mut lost[cluster];
                let can_lose = workers - down.len() > 1;
                if !down.is_empty() && (!can_lose || rng.unit() < 0.5) {
                    back = Some(down.remove(rng.below(down.len())));
                } else if can_lose {
                    let alive: Vec<usize> = (0..workers).filter(|w| !down.contains(w)).collect();
                    let w = alive[rng.below(alive.len())];
                    down.push(w);
                    gone = Some(w);
                }
            }
            DeltaDraw {
                at,
                cluster,
                inter_factor,
                lost: gone,
                rejoined: back,
            }
        })
        .collect()
}

/// One membership event of a training run: before step `step`, rank
/// `worker` crashes or (with `rejoin`) comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Step the event is observed at.
    pub step: usize,
    /// Global rank.
    pub worker: usize,
    /// True for a re-join, false for a crash.
    pub rejoin: bool,
}

/// The churn script: (machine a or b, which of its two churned ranks,
/// re-join?) in schedule order. Whatever ranks the seed picks, the
/// effective cluster (machines × fewest live ranks on one machine) walks
/// 7, 6, 6, 7, 6, 6, 7, 8 ranks per machine, so every seed plans the same
/// shapes.
const CHURN_SCRIPT: [(usize, usize, bool); 8] = [
    (0, 0, false),
    (0, 1, false),
    (1, 0, false),
    (0, 0, true),
    (1, 1, false),
    (0, 1, true),
    (1, 0, true),
    (1, 1, true),
];

/// Seeded crash / re-join events for a run of `steps` steps on
/// `machines × per_machine` ranks: two ranks on each of two seeded
/// machines crash and come back per [`CHURN_SCRIPT`], one event in each
/// of eight equal slots of the run, at a seeded step in the slot's first
/// half. Needs two machines of two ranks and at least 18 steps.
pub fn churn_events(
    rng: &mut Rng,
    machines: usize,
    per_machine: usize,
    steps: usize,
) -> Vec<ChurnEvent> {
    let mut order: Vec<usize> = (0..machines).collect();
    rng.shuffle(&mut order);
    let ranks: Vec<[usize; 2]> = order[..2]
        .iter()
        .map(|&m| {
            let mut local: Vec<usize> = (0..per_machine).collect();
            rng.shuffle(&mut local);
            [m * per_machine + local[0], m * per_machine + local[1]]
        })
        .collect();
    let slot = steps / (CHURN_SCRIPT.len() + 1);
    CHURN_SCRIPT
        .iter()
        .enumerate()
        .map(|(k, &(machine, rank, rejoin))| ChurnEvent {
            step: (k + 1) * slot + rng.below((slot / 2).max(1)),
            worker: ranks[machine][rank],
            rejoin,
        })
        .collect()
}
