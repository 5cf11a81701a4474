//! Generated inputs: the fitted models and the record traffic of each
//! workload. Everything the serving stack sees is made here from the run's
//! `--seed` (streams) or from fixed seeds (training sets, so that the model,
//! and with it the cost of a session push, is the same in every run).

use etsc_classifiers::gaussian::{CovarianceKind, GaussianModel};
use etsc_core::{Event, UcrDataset};
use etsc_datasets::gunpoint::{self, GunPointConfig};
use etsc_early::ects::{Ects, EctsConfig};
use etsc_early::threshold::ProbThreshold;
use etsc_serve::Record;

/// SplitMix64: a small, seedable generator with no dependency.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        finalize(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Standard normal (Box–Muller, one draw per call).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stateless hash of three words.
pub fn mix(a: u64, b: u64, c: u64) -> u64 {
    finalize(finalize(a ^ 0x5851_F42D_4C95_7F2D).wrapping_add(b) ^ c.rotate_left(29))
}

/// A source of ingest batches; the same seed yields the same batches.
pub trait Traffic {
    /// Append the next batch to `out` (which the caller clears).
    fn fill_batch(&mut self, out: &mut Vec<Record>);
    /// Samples of stream `k` emitted so far.
    fn samples(&self, k: u64) -> usize;
    /// The first `n` samples of stream `k`, regenerated from the seed
    /// alone (the checks recompute alarms from these).
    fn stream_values(&self, k: u64, n: usize) -> Vec<f64>;
    /// Ground-truth planted events of stream `k` so far (empty where the
    /// workload plants none that are scored).
    fn events(&self, k: u64) -> Vec<Event>;
}

// ---------------------------------------------------------------- anchor-dense

/// Seed of the GunPoint training set (fixed: the model is not an input).
const DENSE_TRAIN_SEED: u64 = 3;
/// Seed of the pool of exemplars planted into the streams.
const DENSE_POOL_SEED: u64 = 4;
/// Planted exemplars are scaled by this much on top of the walk.
const PLANT_AMPLITUDE: f64 = 2.0;
/// EMA weight smoothing the random walk.
const WALK_SMOOTHING: f64 = 0.125;
/// Gap between planted exemplars, in samples: uniform in this range.
const GAP_RANGE: (usize, usize) = (400, 800);

/// The paper's honest deployment model: ECTS on z-normalized GunPoint-like
/// exemplars (25 per class, length 150).
pub fn dense_model() -> Ects {
    let mut train = gunpoint::generate(25, &GunPointConfig::default(), DENSE_TRAIN_SEED);
    train.znormalize();
    Ects::fit(&train, &EctsConfig::default())
}

fn dense_pool() -> Vec<(Vec<f64>, usize)> {
    let mut pool = gunpoint::generate(20, &GunPointConfig::default(), DENSE_POOL_SEED);
    pool.znormalize();
    pool.iter().map(|(s, l)| (s.to_vec(), l)).collect()
}

/// Smoothed random walk with exemplars from the pool planted at seeded
/// gaps; remembers the events it planted.
#[derive(Debug, Clone)]
struct PlantedWalk {
    rng: SplitMix,
    walk: f64,
    smooth: f64,
    t: usize,
    gap: usize,
    /// (pool index, position, base level) of the exemplar being planted.
    planting: Option<(usize, usize, f64)>,
    events: Vec<Event>,
}

impl PlantedWalk {
    fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix::new(mix(seed, stream, 0xD3E5));
        let gap = GAP_RANGE.0 + rng.below(GAP_RANGE.1 - GAP_RANGE.0);
        PlantedWalk {
            rng,
            walk: 0.0,
            smooth: 0.0,
            t: 0,
            gap,
            planting: None,
            events: Vec::new(),
        }
    }

    fn next(&mut self, pool: &[(Vec<f64>, usize)]) -> f64 {
        let t = self.t;
        self.t += 1;
        if let Some((e, pos, base)) = self.planting {
            let ex = &pool[e].0;
            let v = base + PLANT_AMPLITUDE * ex[pos];
            if pos + 1 == ex.len() {
                // Resume the walk where the exemplar ended: no step.
                self.planting = None;
                self.walk = v;
                self.smooth = v;
                self.gap = GAP_RANGE.0 + self.rng.below(GAP_RANGE.1 - GAP_RANGE.0);
            } else {
                self.planting = Some((e, pos + 1, base));
            }
            return v;
        }
        self.walk += self.rng.normal();
        self.smooth += (self.walk - self.smooth) * WALK_SMOOTHING;
        if self.gap == 0 {
            let e = self.rng.below(pool.len());
            let (ex, label) = &pool[e];
            self.events
                .push(Event::new(t + 1, t + 1 + ex.len(), *label));
            self.planting = Some((e, 0, self.smooth));
        } else {
            self.gap -= 1;
        }
        self.smooth
    }
}

/// A few planted walks, interleaved sample by sample within a batch.
pub struct DenseTraffic {
    seed: u64,
    pool: Vec<(Vec<f64>, usize)>,
    walks: Vec<PlantedWalk>,
    samples_per_stream: usize,
}

impl DenseTraffic {
    pub fn new(seed: u64, streams: usize, batch: usize) -> Self {
        assert_eq!(batch % streams, 0, "a dense batch carries whole rows");
        DenseTraffic {
            seed,
            pool: dense_pool(),
            walks: (0..streams as u64)
                .map(|k| PlantedWalk::new(seed, k))
                .collect(),
            samples_per_stream: batch / streams,
        }
    }
}

impl Traffic for DenseTraffic {
    fn fill_batch(&mut self, out: &mut Vec<Record>) {
        for _ in 0..self.samples_per_stream {
            for (k, w) in self.walks.iter_mut().enumerate() {
                out.push(Record::new(k as u64, w.next(&self.pool)));
            }
        }
    }

    fn samples(&self, k: u64) -> usize {
        self.walks[k as usize].t
    }

    fn stream_values(&self, k: u64, n: usize) -> Vec<f64> {
        let mut w = PlantedWalk::new(self.seed, k);
        (0..n).map(|_| w.next(&self.pool)).collect()
    }

    fn events(&self, k: u64) -> Vec<Event> {
        self.walks[k as usize].events.clone()
    }
}

// ----------------------------------------------------------------- stream-wide

/// Pattern length of the stream-wide model, and so its anchor stride.
pub const WIDE_LEN: usize = 32;
/// Length of each planted level shift, in samples.
const WIDE_EVENT_LEN: usize = 40;
/// Seed of the stream-wide training set.
const WIDE_TRAIN_SEED: u64 = 5;
/// Share of records that go to the hot quarter of the streams.
const HOT_SHARE: f64 = 0.9;

/// The cheap model: a pooled-diagonal Gaussian of two flat levels (−2 and
/// +2, eight noisy exemplars each) behind a 0.9999 posterior threshold. Its
/// Raw session sums the same terms in the same order as the batch path,
/// so a session reproduces `decide` bit for bit.
pub fn wide_model() -> ProbThreshold<GaussianModel> {
    let mut rng = SplitMix::new(WIDE_TRAIN_SEED);
    let data: Vec<Vec<f64>> = (0..16)
        .map(|i| {
            let level = if i % 2 == 0 { -2.0 } else { 2.0 };
            (0..WIDE_LEN).map(|_| level + 2.5 * rng.normal()).collect()
        })
        .collect();
    let train = UcrDataset::new(data, (0..16).map(|i| i % 2).collect())
        .expect("sixteen equal-length exemplars form a dataset");
    let model = GaussianModel::fit(&train, CovarianceKind::PooledDiagonal);
    ProbThreshold::new(model, 0.9999, WIDE_LEN, 4)
}

/// Sample `t` of stream `k`: uniform noise, with a level shift to ±2 for
/// [`WIDE_EVENT_LEN`] samples once per seeded period of 192–319 samples.
pub fn wide_value(seed: u64, k: u64, t: u64) -> f64 {
    let h = mix(seed, k, 0x9E71);
    let period = 192 + h % 128;
    let phase = (h >> 32) % period;
    let pos = (t + phase) % period;
    let noise = (mix(seed ^ 0x0B5E, k, t) >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    if pos < WIDE_EVENT_LEN as u64 {
        let cycle = (t + phase) / period;
        let level = if mix(seed, k, cycle) & 1 == 0 {
            -2.0
        } else {
            2.0
        };
        level + 0.3 * noise
    } else {
        0.8 * noise
    }
}

/// Many streams with skewed arrivals. After one record for each stream in
/// turn, [`HOT_SHARE`] of the records go to the hot quarter of the streams,
/// uniformly; the rest go to the cold streams, of which a seeded quarter is
/// active in each epoch. With the epoch set to the checkpoint interval,
/// most cold streams are unchanged between two checkpoints.
pub struct WideTraffic {
    seed: u64,
    rng: SplitMix,
    batch: usize,
    hot: usize,
    streams: usize,
    counters: Vec<u64>,
    epoch_records: u64,
    emitted: u64,
    cold_active: Vec<u64>,
}

impl WideTraffic {
    pub fn new(seed: u64, streams: usize, batch: usize, epoch_records: u64) -> Self {
        WideTraffic {
            seed,
            rng: SplitMix::new(mix(seed, 0, 0x7AFF)),
            batch,
            hot: streams / 4,
            streams,
            counters: vec![0; streams],
            epoch_records,
            emitted: 0,
            cold_active: Vec::new(),
        }
    }

    fn refresh_cold(&mut self) {
        let epoch = self.emitted / self.epoch_records;
        self.cold_active = (self.hot as u64..self.streams as u64)
            .filter(|&k| mix(self.seed ^ 0xC01D, k, epoch).is_multiple_of(4))
            .collect();
        if self.cold_active.is_empty() {
            self.cold_active.push(self.hot as u64);
        }
    }
}

impl Traffic for WideTraffic {
    fn fill_batch(&mut self, out: &mut Vec<Record>) {
        for _ in 0..self.batch {
            if self.emitted.is_multiple_of(self.epoch_records) {
                self.refresh_cold();
            }
            let k = if self.emitted < self.streams as u64 {
                // Roll call: the first records visit every stream once.
                self.emitted
            } else if self.rng.unit() < HOT_SHARE {
                self.rng.below(self.hot) as u64
            } else {
                self.cold_active[self.rng.below(self.cold_active.len())]
            };
            let t = self.counters[k as usize];
            self.counters[k as usize] += 1;
            out.push(Record::new(k, wide_value(self.seed, k, t)));
            self.emitted += 1;
        }
    }

    fn samples(&self, k: u64) -> usize {
        self.counters[k as usize] as usize
    }

    fn stream_values(&self, k: u64, n: usize) -> Vec<f64> {
        (0..n as u64).map(|t| wide_value(self.seed, k, t)).collect()
    }

    fn events(&self, _k: u64) -> Vec<Event> {
        Vec::new()
    }
}
