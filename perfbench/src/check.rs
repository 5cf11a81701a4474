//! Independent checks on the alarms a run produced.
//!
//! Two kinds: documented rules every alarm must satisfy, and a recomputation
//! of whole streams that uses neither `etsc-serve` nor `etsc-stream`, only
//! the classifier (`decide`, or one fresh session per anchor) and the
//! monitor's documented firing rules:
//!
//! * an anchor opens at every multiple of the stride and lives for at most
//!   one pattern length;
//! * an anchor *commits* at the first sample at which its prefix decides
//!   `Predict` (sessions latch, so this is a property of the anchor alone);
//! * at a sample outside the refractory window, the oldest anchor that
//!   commits there fires, and the window then covers the next `refractory`
//!   samples; commits inside the window are suppressed for good.
//!
//! With `refractory ≥ 1`, an anchor that commits without firing is retired
//! on the next sample, so no alarm fires after the sample its anchor
//! committed at — which is what lets the recomputation work from commit
//! times alone.

use std::collections::BTreeMap;

use etsc_serve::StreamAlarm;

use etsc_early::{EarlyClassifier, SessionNorm};
use etsc_stream::{Alarm, StreamMonitorConfig, StreamNorm};

use crate::inputs::SplitMix;

/// Largest confidence difference accepted under per-prefix normalization:
/// the tolerance ECTS documents between its per-prefix session and the
/// batch path (`crates/early/src/ects.rs`).
pub const PER_PREFIX_TOLERANCE: f64 = 1e-6;

/// Checks every alarm as it is delivered, in constant memory per stream:
/// the documented rules against the stream's previous alarm, a digest of
/// the whole delivered sequence, and the full alarm lists of a few streams
/// sampled before the run (which the recomputation compares against).
pub struct AlarmChecks {
    cfg: StreamMonitorConfig,
    series_len: usize,
    n_classes: usize,
    last: BTreeMap<u64, Alarm>,
    kept: BTreeMap<u64, Vec<Alarm>>,
    /// FNV-1a over (stream, seq, time, anchor, label, confidence bits) of
    /// every alarm in delivery order, and the alarm count.
    sequence: (u64, u64),
    violations: Vec<String>,
}

impl AlarmChecks {
    pub fn new(
        cfg: StreamMonitorConfig,
        series_len: usize,
        n_classes: usize,
        sampled: &[u64],
    ) -> Self {
        AlarmChecks {
            cfg,
            series_len,
            n_classes,
            last: BTreeMap::new(),
            kept: sampled.iter().map(|&k| (k, Vec::new())).collect(),
            sequence: (0xCBF2_9CE4_8422_2325, 0),
            violations: Vec::new(),
        }
    }

    pub fn observe(&mut self, a: &StreamAlarm) {
        let prev = self.last.insert(a.stream, a.alarm);
        if let Some(v) = rule_violation(&self.cfg, self.series_len, self.n_classes, prev, a.alarm) {
            self.violations.push(format!("stream {}: {v}", a.stream));
        }
        if let Some(kept) = self.kept.get_mut(&a.stream) {
            kept.push(a.alarm);
        }
        let al = &a.alarm;
        for word in [
            a.stream,
            a.seq,
            al.time as u64,
            al.anchor as u64,
            al.label as u64,
            al.confidence.to_bits(),
        ] {
            for b in word.to_le_bytes() {
                self.sequence.0 = (self.sequence.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
            }
        }
        self.sequence.1 += 1;
    }

    /// Violations of the documented rules seen so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Digest and count of every alarm delivered, in order.
    pub fn sequence(&self) -> (u64, u64) {
        self.sequence
    }

    /// Number of streams that raised at least one alarm.
    pub fn alarmed_streams(&self) -> usize {
        self.last.len()
    }

    /// The delivered alarms of a sampled stream.
    pub fn kept(&self, stream: u64) -> &[Alarm] {
        self.kept.get(&stream).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// The documented rules for alarm `a` following `prev` on one stream:
/// times strictly increase and are more than the refractory period apart;
/// `anchor ≤ time < anchor + series length`; the anchor lies on the stride
/// grid; the label is a class; the confidence is finite.
fn rule_violation(
    cfg: &StreamMonitorConfig,
    series_len: usize,
    n_classes: usize,
    prev: Option<Alarm>,
    a: Alarm,
) -> Option<String> {
    if let Some(prev) = prev {
        if a.time <= prev.time {
            return Some(format!("time {} after {}", a.time, prev.time));
        }
        if a.time - prev.time <= cfg.refractory {
            return Some(format!(
                "alarms at {} and {} inside refractory {}",
                prev.time, a.time, cfg.refractory
            ));
        }
    }
    if a.time < a.anchor || a.time >= a.anchor + series_len {
        return Some(format!(
            "time {} outside anchor {} + {series_len}",
            a.time, a.anchor
        ));
    }
    if !a.anchor.is_multiple_of(cfg.anchor_stride) {
        return Some(format!("anchor {} off the stride grid", a.anchor));
    }
    if a.label >= n_classes {
        return Some(format!("label {} of {n_classes} classes", a.label));
    }
    if !a.confidence.is_finite() {
        return Some(format!("confidence {}", a.confidence));
    }
    None
}

/// Recompute the alarms of one stream from its samples `xs`, starting at
/// sample 0. Raw norm calls the stateless `decide` on each anchored prefix;
/// per-prefix norm pushes one fresh session per anchor.
pub fn reference_alarms<C: EarlyClassifier + ?Sized>(
    clf: &C,
    cfg: &StreamMonitorConfig,
    xs: &[f64],
) -> Vec<Alarm> {
    assert!(
        cfg.refractory >= 1,
        "the recomputation relies on refractory ≥ 1"
    );
    let len = clf.series_len();
    // The oldest anchor committing at each sample (anchors ascend, so the
    // first one recorded is the oldest).
    let mut commit_at: Vec<Option<Alarm>> = vec![None; xs.len()];
    for anchor in (0..xs.len()).step_by(cfg.anchor_stride) {
        let end = (anchor + len).min(xs.len());
        let commit = match cfg.norm {
            StreamNorm::Raw => (anchor..end).find_map(|t| {
                clf.decide(&xs[anchor..=t])
                    .label_confidence()
                    .map(|lc| (t, lc))
            }),
            StreamNorm::PerPrefix => {
                let mut session = clf.session(SessionNorm::PerPrefix);
                (anchor..end).find_map(|t| session.push(xs[t]).label_confidence().map(|lc| (t, lc)))
            }
        };
        if let Some((time, (label, confidence))) = commit {
            commit_at[time].get_or_insert(Alarm {
                time,
                anchor,
                label,
                confidence,
            });
        }
    }
    let mut out = Vec::new();
    let mut quiet_until = 0;
    for (t, alarm) in commit_at.into_iter().enumerate() {
        if let Some(alarm) = alarm.filter(|_| t >= quiet_until) {
            out.push(alarm);
            quiet_until = t + 1 + cfg.refractory;
        }
    }
    out
}

/// Compare a served alarm sequence with its recomputation: time, anchor
/// and label exactly; confidence bit for bit under Raw norm, and within
/// [`PER_PREFIX_TOLERANCE`] under per-prefix norm.
pub fn compare(stream: u64, norm: StreamNorm, got: &[Alarm], want: &[Alarm]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!(
            "stream {stream}: {} alarms served, {} recomputed",
            got.len(),
            want.len()
        ));
    }
    for (g, w) in got.iter().zip(want) {
        let conf_ok = match norm {
            StreamNorm::Raw => g.confidence.to_bits() == w.confidence.to_bits(),
            StreamNorm::PerPrefix => (g.confidence - w.confidence).abs() <= PER_PREFIX_TOLERANCE,
        };
        if g.time != w.time || g.anchor != w.anchor || g.label != w.label || !conf_ok {
            return Some(format!("stream {stream}: served {g:?}, recomputed {w:?}"));
        }
    }
    None
}

/// A seeded sample of `k` of the streams `0..streams`, ascending.
pub fn sample_streams(seed: u64, streams: usize, k: usize) -> Vec<u64> {
    let mut rng = SplitMix::new(seed ^ 0x5A3B1E);
    let mut pool: Vec<u64> = (0..streams as u64).collect();
    let mut picked: Vec<u64> = (0..k.min(streams))
        .map(|_| pool.swap_remove(rng.below(pool.len())))
        .collect();
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_early::Decision;
    use etsc_stream::StreamMonitor;

    /// Commits to class 1 once at least two samples have arrived and their
    /// mean exceeds 0.5; confidence is that mean. Series length 4.
    struct MeanAbove;

    impl EarlyClassifier for MeanAbove {
        fn n_classes(&self) -> usize {
            2
        }
        fn series_len(&self) -> usize {
            4
        }
        fn decide(&self, prefix: &[f64]) -> Decision {
            let mean = prefix.iter().sum::<f64>() / prefix.len() as f64;
            if prefix.len() >= 2 && mean > 0.5 {
                Decision::Predict {
                    label: 1,
                    confidence: mean,
                }
            } else {
                Decision::Wait
            }
        }
        fn predict_full(&self, _series: &[f64]) -> usize {
            0
        }
    }

    fn alarm(time: usize, anchor: usize, confidence: f64) -> Alarm {
        Alarm {
            time,
            anchor,
            label: 1,
            confidence,
        }
    }

    /// Stride 2, refractory 2, over
    /// `t:  0 1 2 3 4 5 6 7 8 9`
    /// `x:  0 1 1 0 0 0 1 1 1 0`.
    /// Anchor 0 commits at t=2 (mean of 0,1,1 is 2/3). Anchor 2 never does
    /// (1,0 → 1/2; 1,0,0 → 1/3; 1,0,0,0 → 1/4), nor does anchor 4
    /// (0,0 → 0; 0,0,1 → 1/3; 0,0,1,1 → 1/2). Anchor 6 commits at t=7
    /// (1,1 → 1); anchor 8 sees 1,0 → 1/2 and the stream ends. Both commits
    /// fire: 7 − 2 = 5 > refractory 2.
    #[test]
    fn hand_worked_stream() {
        let xs = [0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0];
        let cfg = StreamMonitorConfig {
            anchor_stride: 2,
            norm: StreamNorm::Raw,
            refractory: 2,
        };
        let want = vec![alarm(2, 0, 2.0 / 3.0), alarm(7, 6, 1.0)];
        assert_eq!(reference_alarms(&MeanAbove, &cfg, &xs), want);
        let served = StreamMonitor::new(&MeanAbove, cfg).run(&xs);
        assert_eq!(compare(0, cfg.norm, &served, &want), None);
        let mut checks = AlarmChecks::new(cfg, 4, 2, &[0]);
        for (seq, &alarm) in served.iter().enumerate() {
            checks.observe(&StreamAlarm {
                stream: 0,
                seq: seq as u64,
                alarm,
            });
        }
        assert!(checks.violations().is_empty());
        assert_eq!(checks.kept(0), &want[..]);
        assert_eq!(checks.sequence().1, 2);
    }

    /// Refractory suppression: with stride 1 and refractory 3, anchors 1
    /// and 2 both commit while the window after the t=2 alarm is open.
    #[test]
    fn refractory_suppresses_commits() {
        let xs = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let cfg = StreamMonitorConfig {
            anchor_stride: 1,
            norm: StreamNorm::Raw,
            refractory: 3,
        };
        // Anchor a commits at a+1. Fires: t=1 (anchor 0), window to t=4,
        // so anchors 1..=3 (commits 2..=4) are suppressed; t=5 anchor 4.
        let want = vec![alarm(1, 0, 1.0), alarm(5, 4, 1.0)];
        assert_eq!(reference_alarms(&MeanAbove, &cfg, &xs), want);
        let served = StreamMonitor::new(&MeanAbove, cfg).run(&xs);
        assert_eq!(compare(0, cfg.norm, &served, &want), None);
    }

    #[test]
    fn rules_catch_each_violation() {
        let cfg = StreamMonitorConfig {
            anchor_stride: 2,
            norm: StreamNorm::Raw,
            refractory: 2,
        };
        let cases = [
            vec![alarm(5, 4, 1.0), alarm(5, 4, 1.0)], // time not increasing
            vec![alarm(5, 4, 1.0), alarm(7, 6, 1.0)], // inside refractory
            vec![alarm(9, 4, 1.0)],                   // past anchor + len
            vec![alarm(3, 3, 1.0)],                   // off the stride grid
            vec![alarm(3, 2, f64::NAN)],              // non-finite confidence
            vec![Alarm {
                label: 2,
                ..alarm(3, 2, 1.0)
            }], // unknown class
        ];
        for case in cases {
            let mut checks = AlarmChecks::new(cfg, 4, 2, &[]);
            for (seq, &alarm) in case.iter().enumerate() {
                checks.observe(&StreamAlarm {
                    stream: 0,
                    seq: seq as u64,
                    alarm,
                });
            }
            assert_eq!(checks.violations().len(), 1, "{case:?}");
        }
    }

    #[test]
    fn compare_flags_confidence_bits_under_raw_only() {
        let a = [alarm(2, 0, 0.5)];
        let b = [alarm(2, 0, 0.5 + 1e-12)];
        assert!(compare(0, StreamNorm::Raw, &a, &b).is_some());
        assert!(compare(0, StreamNorm::PerPrefix, &a, &b).is_none());
        assert!(compare(0, StreamNorm::Raw, &a, &[]).is_some());
    }

    #[test]
    fn sequence_digest_sees_every_field() {
        let cfg = StreamMonitorConfig {
            anchor_stride: 1,
            norm: StreamNorm::Raw,
            refractory: 1,
        };
        let digest = |alarm: Alarm| {
            let mut c = AlarmChecks::new(cfg, 4, 2, &[]);
            c.observe(&StreamAlarm {
                stream: 3,
                seq: 9,
                alarm,
            });
            c.sequence()
        };
        let base = digest(alarm(2, 1, 0.5));
        assert_eq!(base, digest(alarm(2, 1, 0.5)));
        assert_ne!(base, digest(alarm(3, 1, 0.5)));
        assert_ne!(base, digest(alarm(2, 0, 0.5)));
        assert_ne!(
            base,
            digest(Alarm {
                label: 0,
                ..alarm(2, 1, 0.5)
            })
        );
        assert_ne!(base, digest(alarm(2, 1, 0.5 + 1e-16)));
    }

    #[test]
    fn sample_is_seeded() {
        let picked = sample_streams(7, 100, 8);
        assert_eq!(picked.len(), 8);
        assert!(picked.windows(2).all(|w| w[0] < w[1] && w[1] < 100));
        assert_eq!(picked, sample_streams(7, 100, 8));
        assert_ne!(picked, sample_streams(8, 100, 8));
    }
}
