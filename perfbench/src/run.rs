//! One run of one workload: warm up, restart, serve in a closed loop,
//! check the alarms, and (in a traced run) measure each layer.
//!
//! Shape of every run:
//!
//! 1. **Warm-up** (untimed): a fresh runtime opens every stream, serves the
//!    first rounds of the traffic and cuts a checkpoint of the model and
//!    every stream.
//! 2. **Set-up**: the process restarts from that checkpoint several times —
//!    load the model from the registry, recover the runtime, and on
//!    net-loopback bind a node and connect a client. `setup_s` is the
//!    median; the last restart is the one that serves.
//! 3. **Closed loop**: one client ingests a fixed number of batches, drains,
//!    and every so many rounds cuts a checkpoint, until `--seconds` pass.
//! 4. **Checks** (after reading peak RSS): the alarm rules on every alarm,
//!    a recomputation of a seeded sample of streams, and on net-loopback an
//!    in-process replay of the same traffic.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use etsc_early::{DecisionSession, EarlyClassifier};
use etsc_net::wire::decode_frame;
use etsc_net::{Endpoint, Listener, Message, NetClient, Node, NodeConfig, MAX_FRAME_PAYLOAD};
use etsc_persist::{ModelRegistry, Persist};
use etsc_serve::{OverflowPolicy, Record, Runtime, RuntimeConfig, StreamAlarm};
use etsc_stream::{
    score_alarms, Alarm, ScoringConfig, StreamMonitor, StreamMonitorConfig, StreamNorm,
};

use crate::check::{self, AlarmChecks};
use crate::inputs::{self, DenseTraffic, Traffic, WideTraffic};
use crate::sys::{self, Usage};
use crate::trace::Spans;

/// Registry name of the served model; the runtime keeps its state under
/// `"<MODEL>.serve"`.
const MODEL: &str = "bench";
const STATE_ENTRY: &str = "bench.serve";
/// Shards per runtime. Drains run on one worker thread (see `main`), so
/// this only exercises routing.
const SHARDS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AnchorDense,
    StreamWide,
    NetLoopback,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::AnchorDense,
        Workload::StreamWide,
        Workload::NetLoopback,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AnchorDense => "anchor-dense",
            Workload::StreamWide => "stream-wide",
            Workload::NetLoopback => "net-loopback",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn shape(self) -> Shape {
        match self {
            // 4 streams × stride 1 × pattern length 150: ~150 live anchors
            // per stream, each an ECTS session under per-prefix norm.
            Workload::AnchorDense => Shape {
                streams: 4,
                batch: 128,
                batches_per_round: 4,
                rounds_per_checkpoint: 16,
                warmup_rounds: 8,
                restarts: 41,
                check_streams: 2,
                replay_records: 8_192,
                monitor: StreamMonitorConfig {
                    anchor_stride: 1,
                    norm: StreamNorm::PerPrefix,
                    refractory: 20,
                },
            },
            // 2048 streams, one live anchor each: the fixed per-record
            // cost of routing, queues and monitor bookkeeping is the bill.
            Workload::StreamWide => Shape {
                streams: 2048,
                batch: 1024,
                batches_per_round: 16,
                rounds_per_checkpoint: 64,
                warmup_rounds: 64,
                restarts: 41,
                check_streams: 32,
                replay_records: 1 << 20,
                monitor: wide_monitor(),
            },
            // The stream-wide traffic in batches of 256 through NetClient →
            // Node over loopback TCP.
            Workload::NetLoopback => Shape {
                streams: 2048,
                batch: 256,
                batches_per_round: 16,
                rounds_per_checkpoint: 256,
                warmup_rounds: 256,
                restarts: 21,
                check_streams: 32,
                replay_records: 1 << 20,
                monitor: wide_monitor(),
            },
        }
    }

    fn traffic(self, seed: u64, shape: &Shape) -> Box<dyn Traffic> {
        match self {
            Workload::AnchorDense => Box::new(DenseTraffic::new(seed, shape.streams, shape.batch)),
            Workload::StreamWide | Workload::NetLoopback => Box::new(WideTraffic::new(
                seed,
                shape.streams,
                shape.batch,
                shape.records_per_checkpoint(),
            )),
        }
    }
}

fn wide_monitor() -> StreamMonitorConfig {
    StreamMonitorConfig {
        anchor_stride: inputs::WIDE_LEN,
        norm: StreamNorm::Raw,
        refractory: 16,
    }
}

struct Shape {
    streams: usize,
    /// Records per ingest call.
    batch: usize,
    /// Ingest calls per drain.
    batches_per_round: usize,
    rounds_per_checkpoint: u64,
    warmup_rounds: u64,
    /// Restarts timed for `setup_s`.
    restarts: usize,
    /// Streams recomputed by the checks.
    check_streams: usize,
    /// Records generated to time the traffic generator in a traced run.
    replay_records: usize,
    monitor: StreamMonitorConfig,
}

impl Shape {
    fn records_per_round(&self) -> u64 {
        (self.batch * self.batches_per_round) as u64
    }

    fn records_per_checkpoint(&self) -> u64 {
        self.records_per_round() * self.rounds_per_checkpoint
    }

    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            shards: SHARDS,
            queue_capacity: self.batch * self.batches_per_round + 1,
            overflow: OverflowPolicy::Block,
            monitor: self.monitor,
            model_name: MODEL.to_string(),
            threads: Some(1),
        }
    }
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit), in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Run one workload.
pub fn run(opts: &Opts) -> Res<Outcome> {
    match opts.workload {
        Workload::AnchorDense => drive(opts, inputs::dense_model()),
        Workload::StreamWide | Workload::NetLoopback => drive(opts, inputs::wide_model()),
    }
}

// ------------------------------------------------------------------ services

/// The three calls the closed loop makes, in process or over the wire.
trait Service {
    fn ingest(&mut self, batch: &[Record]) -> Res<()>;
    fn drain(&mut self) -> Res<Vec<StreamAlarm>>;
    /// Cut a state checkpoint; returns its envelope size in bytes.
    fn checkpoint(&mut self) -> Res<usize>;
}

struct InProcess<'r, 'm, C: EarlyClassifier + Persist> {
    rt: Runtime<'m, C>,
    registry: &'r ModelRegistry,
}

impl<C: EarlyClassifier + Persist> Service for InProcess<'_, '_, C> {
    fn ingest(&mut self, batch: &[Record]) -> Res<()> {
        self.rt.ingest(batch).map_err(err)
    }

    fn drain(&mut self) -> Res<Vec<StreamAlarm>> {
        Ok(self.rt.drain())
    }

    fn checkpoint(&mut self) -> Res<usize> {
        self.rt.checkpoint_state(self.registry).map_err(err)
    }
}

impl Service for NetClient {
    fn ingest(&mut self, batch: &[Record]) -> Res<()> {
        NetClient::ingest(self, batch).map_err(err)
    }

    fn drain(&mut self) -> Res<Vec<StreamAlarm>> {
        NetClient::drain(self).map_err(err)
    }

    fn checkpoint(&mut self) -> Res<usize> {
        NetClient::checkpoint(self).map(|b| b as usize).map_err(err)
    }
}

// --------------------------------------------------------------- closed loop

/// A closed loop's figures are medians over windows of whole rounds, each
/// at least [`WINDOW_SECS`] long and holding at least [`WINDOW_ALARMS`]
/// timed alarms (so its p99 has ten beyond it): the host's CPU speed moves
/// by several percent from one second to the next, and a burst of
/// interference then moves one window rather than the figure.
const WINDOW_SECS: f64 = 2.0;
const WINDOW_ALARMS: usize = 1000;

struct Window {
    secs: f64,
    records: u64,
    cpu_ns: u64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Everything one closed loop measured.
#[derive(Default)]
struct LoopStats {
    rounds: u64,
    records: u64,
    ops: u64,
    failed: u64,
    errors: Vec<String>,
    wall_s: f64,
    cpu_ns: u64,
    switches: u64,
    windows: Vec<Window>,
    timed_alarms: u64,
    /// Alarms whose triggering sample was not ingested in the round that
    /// delivered them.
    late_alarms: u64,
    pause_ms: Vec<f64>,
    checkpoint_bytes: Vec<usize>,
    /// Per-call durations, recorded in traced loops only.
    ingest_ns: Vec<u64>,
    drain_ns: Vec<u64>,
}

impl LoopStats {
    fn window_median(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<_>>())
    }
}

struct LoopCtx<'a> {
    shape: &'a Shape,
    traffic: &'a mut dyn Traffic,
    checks: &'a mut AlarmChecks,
    /// Global ingest sequence number of the next record.
    seq: &'a mut u64,
    /// Rounds served before this loop (span round ids continue).
    round_base: u64,
    seconds: f64,
    /// Layer the service calls belong to, for spans.
    layer: &'static str,
    tracing: Option<Tracing<'a>>,
}

/// What a traced loop does besides serving: record a span around every
/// call, and run a slice of the bare-layer replays after every round.
struct Tracing<'a> {
    spans: &'a mut Spans,
    replays: &'a mut dyn FnMut(),
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// Serve whole rounds until `seconds` pass: `batches_per_round` ingests,
/// one drain, and a checkpoint every `rounds_per_checkpoint` rounds.
fn closed_loop<S: Service>(svc: &mut S, mut cx: LoopCtx<'_>) -> LoopStats {
    let shape = cx.shape;
    let mut st = LoopStats::default();
    let mut batch = Vec::with_capacity(shape.batch);
    let mut starts: Vec<(u64, Instant)> = Vec::with_capacity(shape.batches_per_round);
    let budget = Duration::from_secs_f64(cx.seconds);
    let usage0 = Usage::now();
    let t_start = Instant::now();
    let mut window = (t_start, 0u64, usage0.cpu_ns);
    let mut replay_cpu_ns = 0u64;
    let mut latencies: Vec<f64> = Vec::new();
    loop {
        let round = cx.round_base + st.rounds;
        starts.clear();
        let round_first = *cx.seq;
        for _ in 0..shape.batches_per_round {
            batch.clear();
            cx.traffic.fill_batch(&mut batch);
            st.ops += 1;
            let t0 = Instant::now();
            let res = svc.ingest(&batch);
            if let Some(tr) = cx.tracing.as_mut() {
                let t1 = Instant::now();
                st.ingest_ns.push(nanos(t0, t1));
                tr.spans.record("ingest", cx.layer, t0, t1, round);
            }
            match res {
                Ok(()) => {
                    starts.push((*cx.seq, t0));
                    *cx.seq += batch.len() as u64;
                    st.records += batch.len() as u64;
                }
                Err(e) => {
                    st.failed += 1;
                    st.errors.push(e);
                }
            }
        }
        st.ops += 1;
        let t0 = Instant::now();
        let drained = svc.drain();
        let done = Instant::now();
        if let Some(tr) = cx.tracing.as_mut() {
            st.drain_ns.push(nanos(t0, done));
            tr.spans.record("drain", cx.layer, t0, done, round);
        }
        match drained {
            Ok(alarms) => {
                for a in &alarms {
                    let i = starts.partition_point(|&(first, _)| first <= a.seq);
                    if a.seq < round_first || i == 0 {
                        st.late_alarms += 1;
                    } else {
                        latencies.push(nanos(starts[i - 1].1, done) as f64 / 1e6);
                    }
                    cx.checks.observe(a);
                }
            }
            Err(e) => {
                st.failed += 1;
                st.errors.push(e);
            }
        }
        st.rounds += 1;
        let out_of_time = t_start.elapsed() >= budget;
        let in_window = window.0.elapsed().as_secs_f64();
        let last_window = out_of_time && st.windows.is_empty();
        if (in_window >= WINDOW_SECS && latencies.len() >= WINDOW_ALARMS) || last_window {
            let cpu_ns = Usage::now().cpu_ns;
            st.windows.push(Window {
                secs: in_window,
                records: st.records - window.1,
                cpu_ns: cpu_ns - window.2,
                p50_ms: percentile(&latencies, 0.50),
                p99_ms: percentile(&latencies, 0.99),
            });
            st.timed_alarms += latencies.len() as u64;
            latencies.clear();
            window = (Instant::now(), st.records, cpu_ns);
        }
        if st.rounds.is_multiple_of(shape.rounds_per_checkpoint)
            || (out_of_time && st.pause_ms.is_empty())
        {
            st.ops += 1;
            let t0 = Instant::now();
            let res = svc.checkpoint();
            let t1 = Instant::now();
            if let Some(tr) = cx.tracing.as_mut() {
                tr.spans.record("checkpoint", cx.layer, t0, t1, round);
            }
            match res {
                Ok(bytes) => {
                    st.pause_ms.push(nanos(t0, t1) as f64 / 1e6);
                    st.checkpoint_bytes.push(bytes);
                }
                Err(e) => {
                    st.failed += 1;
                    st.errors.push(e);
                }
            }
        }
        if let Some(tr) = cx.tracing.as_mut() {
            let cpu0 = Usage::now().cpu_ns;
            let t0 = Instant::now();
            (tr.replays)();
            tr.spans
                .record("replay_slice", "bench", t0, Instant::now(), round);
            replay_cpu_ns += Usage::now().cpu_ns - cpu0;
        }
        if out_of_time {
            break;
        }
    }
    st.wall_s = t_start.elapsed().as_secs_f64();
    let usage1 = Usage::now();
    st.cpu_ns = usage1.cpu_ns - usage0.cpu_ns - replay_cpu_ns;
    st.switches = usage1.voluntary_switches - usage0.voluntary_switches;
    st
}

/// The untraced loop, then in a traced run a second, traced loop of the
/// same length on the same service.
#[allow(clippy::too_many_arguments)]
fn serve_phase<'a, S: Service>(
    svc: &mut S,
    shape: &'a Shape,
    traffic: &'a mut dyn Traffic,
    checks: &'a mut AlarmChecks,
    seq: &'a mut u64,
    seconds: f64,
    layer: &'static str,
    tracing: Option<Tracing<'a>>,
) -> (LoopStats, Option<LoopStats>) {
    let untraced = closed_loop(
        svc,
        LoopCtx {
            shape,
            traffic: &mut *traffic,
            checks: &mut *checks,
            seq: &mut *seq,
            round_base: shape.warmup_rounds,
            seconds,
            layer,
            tracing: None,
        },
    );
    let round_base = shape.warmup_rounds + untraced.rounds;
    let traced = tracing.map(|tracing| {
        closed_loop(
            svc,
            LoopCtx {
                shape,
                traffic,
                checks,
                seq,
                round_base,
                seconds,
                layer,
                tracing: Some(tracing),
            },
        )
    });
    (untraced, traced)
}

// ------------------------------------------------------------------ restarts

/// Load the model from the registry, recover the runtime from its
/// checkpoint, and hand the runtime to `then`. Returns the load and
/// recover times in seconds, and what `then` returned.
fn restart<C, R>(
    registry: &ModelRegistry,
    then: impl for<'m> FnOnce(Runtime<'m, C>) -> Res<R>,
) -> Res<(f64, f64, R)>
where
    C: EarlyClassifier + Persist + 'static,
{
    let t0 = Instant::now();
    let model: C = registry.load(MODEL).map_err(err)?;
    let t1 = Instant::now();
    let rt = Runtime::recover_from(&model, registry, MODEL).map_err(err)?;
    let t2 = Instant::now();
    let r = then(rt)?;
    Ok(((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64(), r))
}

/// Wrap `rt` in a node on a fresh loopback port, connect a client, run
/// `body` with it, and shut the node down gracefully. Returns the time
/// from wrapping the runtime to a connected client, `body`'s result, and
/// the alarms of the node's final drain.
fn net_session<C, R>(
    rt: Runtime<'_, C>,
    registry: &ModelRegistry,
    body: impl FnOnce(&mut NetClient) -> R,
) -> Res<(f64, R, Vec<StreamAlarm>)>
where
    C: EarlyClassifier + Persist,
{
    let t0 = Instant::now();
    let node = Node::new(rt, NodeConfig::default()).with_registry(registry.clone());
    let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).map_err(err)?;
    let endpoint = listener.local_endpoint().map_err(err)?;
    std::thread::scope(|s| {
        let node = &node;
        let server = s.spawn(move || node.serve(listener));
        let result = NetClient::connect(&endpoint)
            .map_err(err)
            .and_then(|mut client| {
                let connect_s = t0.elapsed().as_secs_f64();
                let r = body(&mut client);
                let last = client.shutdown().map_err(err)?;
                Ok((connect_s, r, last))
            });
        // Stops the accept loop if the client never got to shut it down.
        node.stop();
        let served = server
            .join()
            .map_err(|_| "node accept loop panicked".to_string())?;
        let (connect_s, r, last) = result?;
        served.map_err(err)?;
        Ok((connect_s, r, last))
    })
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of raw samples.
fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A scratch directory under `.perfbench/` in the working directory,
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: Workload) -> Res<WorkDir> {
        let dir =
            PathBuf::from(".perfbench").join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(err)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// --------------------------------------------------------------------- drive

/// What the serving restart hands back.
struct Served {
    connect_s: f64,
    untraced: LoopStats,
    traced: Option<LoopStats>,
    /// Alarms of the node's final drain (net-loopback; empty otherwise).
    tail: Vec<StreamAlarm>,
    peak_rss_mb: f64,
}

fn drive<C>(opts: &Opts, fitted: C) -> Res<Outcome>
where
    C: EarlyClassifier + Persist + 'static,
{
    let wl = opts.workload;
    let net = wl == Workload::NetLoopback;
    let shape = wl.shape();
    let work = WorkDir::new(wl)?;
    let registry = ModelRegistry::open(work.0.join("registry")).map_err(err)?;
    let cfg = shape.runtime_config();
    let origin = Instant::now();
    let mut spans = Spans::new(origin);

    // 1. Warm-up: serve the first rounds and cut the warm-start checkpoint.
    let mut traffic = wl.traffic(opts.seed, &shape);
    let sample = check::sample_streams(opts.seed, shape.streams, shape.check_streams);
    let mut checks = AlarmChecks::new(
        shape.monitor,
        fitted.series_len(),
        fitted.n_classes(),
        &sample,
    );
    let mut seq = 0u64;
    {
        let mut rt = open_all(&fitted, &cfg, &shape)?;
        let mut batch = Vec::with_capacity(shape.batch);
        for _ in 0..shape.warmup_rounds {
            for _ in 0..shape.batches_per_round {
                batch.clear();
                traffic.fill_batch(&mut batch);
                rt.ingest(&batch).map_err(err)?;
                seq += batch.len() as u64;
            }
            rt.drain().iter().for_each(|a| checks.observe(a));
        }
        rt.checkpoint(&registry).map_err(err)?;
    }

    // 2. Set-up: restarts from the checkpoint; all but the last are
    //    discarded.
    let mut setup_s = Vec::new();
    let mut load_ms = Vec::new();
    let mut recover_ms = Vec::new();
    for _ in 1..shape.restarts {
        let t0 = Instant::now();
        let (load, recover, connect) = restart::<C, f64>(&registry, |rt| {
            if net {
                net_session(rt, &registry, |_| ()).map(|(c, _, _)| c)
            } else {
                Ok(0.0)
            }
        })?;
        let t1 = Instant::now();
        spans.record("restart", "serve", t0, t1, 0);
        setup_s.push(load + recover + connect);
        load_ms.push(load * 1e3);
        recover_ms.push(recover * 1e3);
    }

    // 3. The last restart serves the closed loop. A traced run serves half
    //    the time untraced, then half traced with bare-layer replays
    //    interleaved.
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut replays = opts
        .trace
        .then(|| Replays::new(&fitted, wl, opts.seed, &shape, sample[0]));
    let mut slice = || replays.iter_mut().for_each(Replays::slice);
    let (load, recover, served) = restart::<C, Served>(&registry, |rt| {
        let tracing = opts.trace.then_some(Tracing {
            spans: &mut spans,
            replays: &mut slice,
        });
        if net {
            let (connect_s, (untraced, traced, peak_rss_mb), tail) =
                net_session(rt, &registry, |client| {
                    let (u, t) = serve_phase(
                        client,
                        &shape,
                        traffic.as_mut(),
                        &mut checks,
                        &mut seq,
                        seconds,
                        "net",
                        tracing,
                    );
                    (u, t, sys::peak_rss_mb())
                })?;
            Ok(Served {
                connect_s,
                untraced,
                traced,
                tail,
                peak_rss_mb,
            })
        } else {
            let mut svc = InProcess {
                rt,
                registry: &registry,
            };
            let (untraced, traced) = serve_phase(
                &mut svc,
                &shape,
                traffic.as_mut(),
                &mut checks,
                &mut seq,
                seconds,
                "serve",
                tracing,
            );
            Ok(Served {
                connect_s: 0.0,
                untraced,
                traced,
                tail: Vec::new(),
                peak_rss_mb: sys::peak_rss_mb(),
            })
        }
    })?;
    setup_s.push(load + recover + served.connect_s);
    load_ms.push(load * 1e3);
    recover_ms.push(recover * 1e3);

    served.tail.iter().for_each(|a| checks.observe(a));
    let loops: Vec<&LoopStats> = std::iter::once(&served.untraced)
        .chain(served.traced.as_ref())
        .collect();
    let attempted: u64 = loops.iter().map(|l| l.ops).sum();
    let failed: u64 = loops.iter().map(|l| l.failed).sum();
    for e in loops.iter().flat_map(|l| &l.errors).take(5) {
        eprintln!("failed operation: {e}");
    }

    // 4. Checks.
    let mut problems: Vec<String> = checks.violations().to_vec();
    let late: u64 = loops.iter().map(|l| l.late_alarms).sum();
    if late > 0 {
        problems.push(format!(
            "{late} alarms delivered by a later round than their sample's"
        ));
    }
    if checks.alarmed_streams() == 0 {
        problems.push("no stream raised an alarm".to_string());
    }
    if sample.iter().all(|&k| checks.kept(k).is_empty()) {
        problems.push("no sampled stream raised an alarm".to_string());
    }
    let mut recomputed = Vec::new();
    for &k in &sample {
        let xs = traffic.stream_values(k, traffic.samples(k));
        let want = check::reference_alarms(&fitted, &shape.monitor, &xs);
        problems.extend(check::compare(k, shape.monitor.norm, checks.kept(k), &want));
        recomputed.push((k, want));
    }
    let mut replay = None;
    if net {
        let rounds = shape.warmup_rounds + loops.iter().map(|l| l.rounds).sum::<u64>();
        let r = replay_in_process(&fitted, &cfg, wl, opts.seed, &shape, rounds)?;
        if r.sequence != checks.sequence() {
            problems.push(format!(
                "net alarms (digest {:x}, {} alarms) differ from in-process (digest {:x}, {})",
                checks.sequence().0,
                checks.sequence().1,
                r.sequence.0,
                r.sequence.1
            ));
        }
        replay = Some(r);
    }
    eprintln!(
        "{}: {} alarms on {:.1}% of {} streams; checks: rules on all, recomputed {} streams{}; {} problems",
        wl.name(),
        checks.sequence().1,
        checks.alarmed_streams() as f64 / shape.streams as f64 * 100.0,
        shape.streams,
        sample.len(),
        if net { ", net = in-process replay" } else { "" },
        problems.len()
    );
    for p in problems.iter().take(10) {
        eprintln!("CHECK FAILED: {p}");
    }
    if wl == Workload::AnchorDense {
        paper_figures(traffic.as_ref(), &recomputed);
    }

    let u = &served.untraced;
    let mut metrics = Vec::new();
    if !opts.trace {
        metrics = vec![
            (
                "records_per_s",
                u.window_median(|w| w.records as f64 / w.secs),
                "records/s",
            ),
            (
                "cpu_ns_per_record",
                u.window_median(|w| w.cpu_ns as f64 / w.records.max(1) as f64),
                "ns",
            ),
            ("alarm_latency_p50_ms", u.window_median(|w| w.p50_ms), "ms"),
            ("alarm_latency_p99_ms", u.window_median(|w| w.p99_ms), "ms"),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", served.peak_rss_mb, "MB"),
            ("checkpoint_pause_ms", median(&u.pause_ms), "ms"),
            (
                "checkpoint_bytes",
                median(
                    &u.checkpoint_bytes
                        .iter()
                        .map(|&b| b as f64)
                        .collect::<Vec<_>>(),
                ),
                "bytes",
            ),
        ];
        eprintln!(
            "{}: {} rounds, {} records in {:.2} s, {} windows, {} alarms timed, {} checkpoints, {} restarts",
            wl.name(),
            u.rounds,
            u.records,
            u.wall_s,
            u.windows.len(),
            u.timed_alarms,
            u.pause_ms.len(),
            setup_s.len()
        );
    } else if let Some(t) = &served.traced {
        let layers = LayerInputs {
            shape: &shape,
            opts,
            registry: &registry,
            untraced: u,
            traced: t,
            replay: replay.as_ref(),
            replays: replays.as_ref().ok_or("a traced run has replays")?,
            load_ms: median(&load_ms),
            recover_ms: median(&recover_ms),
        };
        metrics = measure_layers(layers, &mut spans)?;
        let path =
            PathBuf::from(".perfbench").join(format!("trace-{}-seed{}.json", wl.name(), opts.seed));
        std::fs::write(&path, spans.chrome_json(wl.name())).map_err(err)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// The paper-level figures on the recomputed streams (whose alarms the
/// checks found equal to the served ones): alarms against the planted
/// exemplars, and false positives per true positive (75-sample tolerance,
/// any class).
fn paper_figures(traffic: &dyn Traffic, recomputed: &[(u64, Vec<Alarm>)]) {
    let (mut tp, mut fp, mut fn_, mut events, mut alarms) = (0, 0, 0, 0, 0);
    for (k, got) in recomputed {
        let n = traffic.samples(*k);
        let ev: Vec<_> = traffic
            .events(*k)
            .into_iter()
            .filter(|e| e.end <= n)
            .collect();
        let score = score_alarms(
            got,
            &ev,
            n,
            &ScoringConfig {
                tolerance: 75,
                match_labels: false,
            },
        );
        tp += score.true_positives;
        fp += score.false_positives;
        fn_ += score.false_negatives;
        events += ev.len();
        alarms += got.len();
    }
    eprintln!(
        "anchor-dense paper figures ({} streams): {events} planted events, {alarms} alarms: {tp} TP, {fp} FP, {fn_} FN; {:.1} false positives per true positive",
        recomputed.len(),
        fp as f64 / tp.max(1) as f64
    );
}

/// A fresh runtime with every stream open, so that the number of live
/// monitors — and with it checkpoint size and memory — does not depend on
/// how many records a run gets through.
fn open_all<'m, C: EarlyClassifier + Persist>(
    fitted: &'m C,
    cfg: &RuntimeConfig,
    shape: &Shape,
) -> Res<Runtime<'m, C>> {
    let mut rt = Runtime::new(fitted, cfg.clone()).map_err(err)?;
    for k in 0..shape.streams as u64 {
        rt.open_stream(k);
    }
    Ok(rt)
}

/// The same traffic served by a fresh in-process runtime with no restart,
/// timing its ingest and drain calls.
struct Replay {
    /// Digest and count of the delivered alarm sequence.
    sequence: (u64, u64),
    records: u64,
    ingest_ns: u64,
    drain_ns: u64,
}

fn replay_in_process<C: EarlyClassifier + Persist>(
    fitted: &C,
    cfg: &RuntimeConfig,
    wl: Workload,
    seed: u64,
    shape: &Shape,
    rounds: u64,
) -> Res<Replay> {
    let mut rt = open_all(fitted, cfg, shape)?;
    let mut traffic = wl.traffic(seed, shape);
    let mut batch = Vec::with_capacity(shape.batch);
    let mut checks = AlarmChecks::new(shape.monitor, fitted.series_len(), fitted.n_classes(), &[]);
    let mut r = Replay {
        sequence: (0, 0),
        records: 0,
        ingest_ns: 0,
        drain_ns: 0,
    };
    for _ in 0..rounds {
        for _ in 0..shape.batches_per_round {
            batch.clear();
            traffic.fill_batch(&mut batch);
            let t0 = Instant::now();
            rt.ingest(&batch).map_err(err)?;
            r.ingest_ns += nanos(t0, Instant::now());
            r.records += batch.len() as u64;
        }
        let t0 = Instant::now();
        let alarms = rt.drain();
        r.drain_ns += nanos(t0, Instant::now());
        alarms.iter().for_each(|a| checks.observe(a));
    }
    r.sequence = checks.sequence();
    Ok(r)
}

// -------------------------------------------------------------------- layers

struct LayerInputs<'a, C: EarlyClassifier> {
    shape: &'a Shape,
    opts: &'a Opts,
    registry: &'a ModelRegistry,
    untraced: &'a LoopStats,
    traced: &'a LoopStats,
    replay: Option<&'a Replay>,
    replays: &'a Replays<'a, C>,
    load_ms: f64,
    recover_ms: f64,
}

/// Bare-layer replays, run in slices between the traced loop's rounds so
/// that drift in host speed hits them and the served calls alike:
///
/// * `StreamMonitor::push` over the run's traffic from sample 0, one bare
///   monitor per stream (the warm-up's records replayed untimed first);
/// * `DecisionSession::push` over the anchors of one sampled stream, one
///   pooled session reset per anchor as the monitor does, each pushed
///   until it commits or has seen a pattern length — as many pushes per
///   slice as the monitor slice made.
struct Replays<'m, C: EarlyClassifier> {
    stride: usize,
    series_len: usize,
    slice_records: usize,
    traffic: Box<dyn Traffic>,
    records: Vec<Record>,
    monitors: Vec<StreamMonitor<'m, C>>,
    /// Samples each bare monitor has seen.
    samples: Vec<usize>,
    live_start: usize,
    /// Σ over timed records of the pushed monitor's live anchors after.
    live_after: usize,
    spawned: usize,
    monitor_ns: u64,
    monitor_records: u64,
    session: Box<dyn DecisionSession + 'm>,
    values: Vec<f64>,
    anchor: usize,
    pos: usize,
    session_ns: u64,
    session_pushes: u64,
}

/// Samples of the sampled stream the session replay cycles over.
const SESSION_VALUES: usize = 50_000;

impl<'m, C: EarlyClassifier> Replays<'m, C> {
    fn new(clf: &'m C, wl: Workload, seed: u64, shape: &Shape, session_stream: u64) -> Self {
        let mut traffic = wl.traffic(seed, shape);
        let mut monitors: Vec<StreamMonitor<'m, C>> = (0..shape.streams)
            .map(|_| StreamMonitor::new(clf, shape.monitor))
            .collect();
        let mut samples = vec![0usize; shape.streams];
        let mut records = Vec::new();
        let warm = (shape.warmup_rounds * shape.records_per_round()) as usize;
        while records.len() < warm {
            traffic.fill_batch(&mut records);
        }
        for r in &records {
            monitors[r.stream as usize].push(r.value);
            samples[r.stream as usize] += 1;
        }
        let values = traffic.stream_values(session_stream, SESSION_VALUES);
        Replays {
            stride: shape.monitor.anchor_stride,
            series_len: clf.series_len(),
            slice_records: shape.records_per_round() as usize / 4,
            live_start: monitors.iter().map(|m| m.live_anchors()).sum(),
            traffic,
            records,
            monitors,
            samples,
            live_after: 0,
            spawned: 0,
            monitor_ns: 0,
            monitor_records: 0,
            session: clf.session(shape.monitor.norm.into()),
            values,
            anchor: 0,
            pos: 0,
            session_ns: 0,
            session_pushes: 0,
        }
    }

    fn slice(&mut self) {
        self.records.clear();
        while self.records.len() < self.slice_records {
            self.traffic.fill_batch(&mut self.records);
        }
        let live_before = self.live_after;
        let t0 = Instant::now();
        for r in &self.records {
            let m = &mut self.monitors[r.stream as usize];
            std::hint::black_box(m.push(r.value));
            self.live_after += m.live_anchors();
        }
        self.monitor_ns += nanos(t0, Instant::now());
        self.monitor_records += self.records.len() as u64;
        // A push reaches every anchor live after the stream's previous
        // sample, plus the one opened on a stride boundary.
        let mut spawned = 0;
        for r in &self.records {
            let t = &mut self.samples[r.stream as usize];
            spawned += usize::from(t.is_multiple_of(self.stride));
            *t += 1;
        }
        self.spawned += spawned;

        let target = self.live_after - live_before + spawned;
        let t0 = Instant::now();
        for _ in 0..target {
            if self.pos == 0 {
                self.session.reset();
            }
            let d = self.session.push(self.values[self.anchor + self.pos]);
            self.pos += 1;
            if std::hint::black_box(d).is_predict()
                || self.pos == self.series_len
                || self.anchor + self.pos == self.values.len()
            {
                self.pos = 0;
                self.anchor += self.stride;
                if self.anchor >= self.values.len() {
                    self.anchor = 0;
                }
            }
        }
        self.session_ns += nanos(t0, Instant::now());
        self.session_pushes += target as u64;
    }

    /// (ns per session push, monitor ns per record, session pushes per
    /// record).
    fn results(&self) -> (f64, f64, f64) {
        let live_end: usize = self.monitors.iter().map(|m| m.live_anchors()).sum();
        let pushes = self.live_after + self.live_start + self.spawned - live_end;
        let records = self.monitor_records.max(1) as f64;
        (
            self.session_ns as f64 / self.session_pushes.max(1) as f64,
            self.monitor_ns as f64 / records,
            pushes as f64 / records,
        )
    }
}

/// Cost of generating the traffic itself, per record.
fn harness_ns_per_record(wl: Workload, seed: u64, shape: &Shape) -> f64 {
    let mut traffic = wl.traffic(seed, shape);
    let mut batch = Vec::with_capacity(shape.batch);
    let mut n = 0usize;
    let t0 = Instant::now();
    while n < shape.replay_records {
        batch.clear();
        traffic.fill_batch(&mut batch);
        n += std::hint::black_box(&batch).len();
    }
    nanos(t0, Instant::now()) as f64 / n as f64
}

/// Median time of `ModelRegistry::save_bytes` of the last checkpoint's
/// envelope, under another name.
fn persist_write_ms(registry: &ModelRegistry) -> Res<f64> {
    let bytes = registry.load_bytes(STATE_ENTRY).map_err(err)?;
    let mut ms = Vec::new();
    for _ in 0..9 {
        let t0 = Instant::now();
        registry.save_bytes("probe", &bytes).map_err(err)?;
        ms.push(nanos(t0, Instant::now()) as f64 / 1e6);
    }
    Ok(median(&ms))
}

/// Encode and decode the run's own batch shape through the public wire
/// codec: (encode ns/record, decode ns/record, frame bytes/record).
fn wire_codec(wl: Workload, seed: u64, shape: &Shape) -> Res<(f64, f64, f64)> {
    let mut traffic = wl.traffic(seed, shape);
    let batches: Vec<Vec<Record>> = (0..256)
        .map(|_| {
            let mut b = Vec::with_capacity(shape.batch);
            traffic.fill_batch(&mut b);
            b
        })
        .collect();
    let records: usize = batches.iter().map(Vec::len).sum();
    let msgs: Vec<Message> = batches
        .into_iter()
        .enumerate()
        .map(|(i, records)| Message::IngestBatch {
            client: 0,
            seq: i as u64 + 1,
            records,
            ctx: None,
        })
        .collect();
    let t0 = Instant::now();
    let frames: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| std::hint::black_box(m.to_frame_bytes()))
        .collect();
    let enc_ns = nanos(t0, Instant::now()) as f64;
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let t0 = Instant::now();
    for (f, m) in frames.iter().zip(&msgs) {
        let frame = decode_frame(f, MAX_FRAME_PAYLOAD).map_err(err)?;
        let decoded = std::hint::black_box(Message::decode(&frame).map_err(err)?);
        if decoded != *m {
            return Err("wire codec round trip changed a batch".to_string());
        }
    }
    let dec_ns = nanos(t0, Instant::now()) as f64;
    let n = records as f64;
    Ok((enc_ns / n, dec_ns / n, bytes as f64 / n))
}

fn measure_layers<C: EarlyClassifier>(
    x: LayerInputs<'_, C>,
    spans: &mut Spans,
) -> Res<Vec<(&'static str, f64, &'static str)>> {
    let (wl, seed, shape) = (x.opts.workload, x.opts.seed, x.shape);
    let net = wl == Workload::NetLoopback;
    let t = x.traced;
    let records = t.records.max(1) as f64;

    let (push_ns, monitor_ns, pushes_per_record) = x.replays.results();
    let t0 = Instant::now();
    let harness_ns = harness_ns_per_record(wl, seed, shape);
    let t1 = Instant::now();
    spans.record("traffic_generation", "bench", t0, t1, 0);
    let write_ms = persist_write_ms(x.registry)?;
    spans.record("write_probe", "persist", t1, Instant::now(), 0);

    // serve.*: the traced loop's own calls in process; for net-loopback
    // the in-process replay of the same traffic.
    let (ingest_ns, drain_ns) = match x.replay.filter(|_| net) {
        Some(r) => (
            r.ingest_ns as f64 / r.records.max(1) as f64,
            r.drain_ns as f64 / r.records.max(1) as f64,
        ),
        None => (
            t.ingest_ns.iter().sum::<u64>() as f64 / records,
            t.drain_ns.iter().sum::<u64>() as f64 / records,
        ),
    };
    let pause_ms = median(&t.pause_ms);
    let ckpt_bytes = median(
        &t.checkpoint_bytes
            .iter()
            .map(|&b| b as f64)
            .collect::<Vec<_>>(),
    );
    let (enc_ns, dec_ns, wire_bytes, ingest_rtt_us, drain_rtt_us) = if net {
        let (e, d, b) = wire_codec(wl, seed, shape)?;
        let us = |v: &[u64]| median(&v.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>());
        (e, d, b, us(&t.ingest_ns), us(&t.drain_ns))
    } else {
        (0.0, 0.0, 0.0, 0.0, 0.0)
    };
    let u = x.untraced;
    let switches_per_k = u.switches as f64 / u.records.max(1) as f64 * 1e3;

    // The ledger: ns per record by layer, against the untraced CPU cost.
    let early = pushes_per_record * push_ns;
    let stream = monitor_ns - early;
    let serve = ingest_ns + drain_ns - monitor_ns;
    let persist = t.pause_ms.iter().sum::<f64>() * 1e6 / records;
    let calls_ns =
        (t.ingest_ns.iter().sum::<u64>() + t.drain_ns.iter().sum::<u64>()) as f64 / records;
    let net_ns = if net {
        calls_ns - ingest_ns - drain_ns
    } else {
        0.0
    };
    let sum = early + stream + serve + persist + net_ns + harness_ns;
    let cpu_untraced = u.cpu_ns as f64 / u.records.max(1) as f64;
    let cpu_traced = t.cpu_ns as f64 / records;
    eprintln!("ledger {} (ns/record):", wl.name());
    for (name, v) in [
        ("early", early),
        ("stream", stream),
        ("serve", serve),
        ("persist", persist),
        ("net", net_ns),
        ("harness", harness_ns),
    ] {
        eprintln!("  {name:<8} {v:>10.1}  {:>5.1}%", v / sum * 100.0);
    }
    eprintln!(
        "  sum      {sum:>10.1}  vs untraced cpu_ns_per_record {cpu_untraced:.1} ({:+.1}%)",
        (sum / cpu_untraced - 1.0) * 100.0
    );
    eprintln!(
        "  tracing overhead: traced cpu_ns_per_record {cpu_traced:.1} vs untraced {cpu_untraced:.1} ({:+.2}%)",
        (cpu_traced / cpu_untraced - 1.0) * 100.0
    );

    Ok(vec![
        ("early.session_push_ns", push_ns, "ns"),
        ("stream.monitor_ns_per_record", monitor_ns, "ns"),
        ("stream.bookkeeping_ns_per_record", stream, "ns"),
        (
            "stream.session_pushes_per_record",
            pushes_per_record,
            "count",
        ),
        ("serve.ingest_ns_per_record", ingest_ns, "ns"),
        ("serve.drain_ns_per_record", drain_ns, "ns"),
        ("serve.overhead_ns_per_record", serve, "ns"),
        ("serve.recover_ms", x.recover_ms, "ms"),
        ("serve.checkpoint_encode_ms", pause_ms - write_ms, "ms"),
        ("persist.model_load_ms", x.load_ms, "ms"),
        ("persist.write_ms", write_ms, "ms"),
        (
            "persist.state_bytes_per_stream",
            ckpt_bytes / shape.streams as f64,
            "bytes",
        ),
        ("net.ingest_rtt_us", ingest_rtt_us, "us"),
        ("net.drain_rtt_us", drain_rtt_us, "us"),
        ("net.encode_ns_per_record", enc_ns, "ns"),
        ("net.decode_ns_per_record", dec_ns, "ns"),
        ("net.wire_bytes_per_record", wire_bytes, "bytes"),
        (
            "net.context_switches_per_krecord",
            switches_per_k,
            "1/krecord",
        ),
    ])
}
