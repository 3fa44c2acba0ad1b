//! The observation seam every driver reports through.
//!
//! A run is observed on four channels: the [`TraceSink`] event stream, the
//! run-level span [`Profiler`], per-round metric registries (built only
//! when the sink wants them) and the flight recorder's live progress. An
//! [`Observer`] holds all four behind one handle, so a driver calls one
//! hook per level of the paper's engine and the hook fans out:
//!
//! * `run_start` / `run_end` bracket the run;
//! * a span tree per superstep or phase, emitted as one `span` event that
//!   names its backend, and folded into the run-level tree;
//! * `superstep` reports one BSP superstep; `round_end` one hierarchy round;
//! * `emit` carries driver-specific events (`sync`, `metrics`), gated with
//!   the registries they summarise by `Observer::metrics`.
//!
//! Progress has two consumers with different needs. The flight
//! [`recorder`] wants *live* observation (bounded-frequency snapshots for
//! the status line and the ring, plus watchdog heartbeats) and tolerates a
//! wall-clock-dependent cadence, since nothing it does feeds back into the
//! run. The trace wants *deterministic* content, so it receives only the
//! per-round snapshots. Neither touches the simulated-memory tallies:
//! simulated cycle totals are bit-for-bit identical whatever is observed.

use crate::kernels::hashtable::TableStats;
use crate::rounds::host_decide;
use gala_gpu::memory::MemTally;
use gala_gpu::profile::{Profiler, SpanRecord};
use gala_graph::Graph;
use gala_telemetry::recorder::{self, ProgressLimiter, ProgressSnapshot};
use gala_telemetry::{SpanBackend, TraceEvent, TraceSink};

/// One run's observation channels. [`Observer::off`] observes nothing and
/// costs a branch per hook; the recorder's live progress is armed by its
/// global switches whatever the observer, sampled when the run starts.
pub struct Observer<'a> {
    sink: Option<&'a mut dyn TraceSink>,
    prof: Profiler,
    /// The run's progress reporter, from [`Self::start`] on.
    progress: Option<ProgressReporter>,
}

impl<'a> Observer<'a> {
    /// Observes a run into `sink` (events are built only when there is
    /// one and it is enabled) and `prof` (the run-level span tree, see
    /// [`Self::finish`]).
    pub fn new(sink: Option<&'a mut dyn TraceSink>, prof: Profiler) -> Self {
        Self {
            sink,
            prof,
            progress: None,
        }
    }

    /// Observes neither events nor spans.
    pub fn off() -> Self {
        Self::new(None, Profiler::disabled())
    }

    /// The run-level span tree (an empty root when profiling was off).
    pub fn finish(self) -> SpanRecord {
        self.prof.finish()
    }

    /// The enabled sink, if any.
    fn sink(&mut self) -> Option<&mut (dyn TraceSink + 'a)> {
        self.sink.as_deref_mut().filter(|s| s.enabled())
    }

    /// Whether the sink wants events.
    fn tracing(&self) -> bool {
        self.sink.as_deref().is_some_and(|s| s.enabled())
    }

    /// Whether drivers should build their per-round metric registries:
    /// only when tracing, since the registries reach nothing but events.
    pub(crate) fn metrics(&self) -> bool {
        self.tracing()
    }

    /// Emits the event `event` builds, when the sink wants events.
    pub(crate) fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink() {
            sink.emit(event());
        }
    }

    /// Opens `driver`'s run without a `run_start` event: samples the
    /// recorder's switches for the run's one progress reporter.
    pub(crate) fn start(&mut self, driver: &'static str) {
        self.progress = Some(ProgressReporter::new(driver));
    }

    /// [`Self::start`] plus the `run_start` event.
    pub(crate) fn run_start(&mut self, driver: &'static str, graph: &Graph, devices: u32) {
        self.start(driver);
        self.emit(|| TraceEvent::RunStart {
            algorithm: driver.to_string(),
            n: graph.num_vertices() as u64,
            m: graph.num_edges() as u64,
            devices,
        });
    }

    /// Emits the `run_end` event that closes the trace.
    pub(crate) fn run_end(&mut self, modularity: f64, rounds: u32, total_cycles: f64) {
        self.emit(|| TraceEvent::RunEnd {
            modularity,
            rounds,
            total_cycles,
        });
    }

    /// Opens a span of the run-level tree.
    pub(crate) fn enter(&mut self, name: &str) {
        self.prof.enter(name);
    }

    /// Closes the innermost open span of the run-level tree.
    pub(crate) fn exit(&mut self) {
        self.prof.exit();
    }

    /// A fresh profiler for one superstep's or phase's tree, disabled (a
    /// no-op) unless the run-level profiler or the sink wants span trees.
    pub(crate) fn sub_profiler(&self) -> Profiler {
        if self.prof.is_enabled() || self.tracing() {
            Profiler::new()
        } else {
            Profiler::disabled()
        }
    }

    /// Finishes `sub`, emits its tree as a `span` event charged to
    /// `backend`, and folds the tree into the run-level tree at the
    /// current span. A disabled `sub` does nothing.
    pub(crate) fn emit_tree(
        &mut self,
        sub: Profiler,
        backend: SpanBackend,
        round: u32,
        superstep: u32,
        phase: &str,
    ) {
        if !sub.is_enabled() {
            return;
        }
        let tree = sub.finish();
        if let Some(sink) = self.sink() {
            sink.emit(TraceEvent::Span {
                round,
                superstep,
                phase: phase.to_string(),
                backend,
                root: tree.clone(),
            });
        }
        self.prof.absorb(tree);
    }

    /// [`Self::emit_tree`] for a BSP superstep's tree, folded under a
    /// `superstep` span.
    pub(crate) fn superstep_tree(
        &mut self,
        sub: Profiler,
        backend: SpanBackend,
        round: u32,
        superstep: u32,
    ) {
        self.prof.enter("superstep");
        self.emit_tree(sub, backend, round, superstep, "phase1");
        self.prof.exit();
    }

    /// Runs a phase 1 that is one indivisible host pass (sequential
    /// Louvain, Leiden's local moving) as superstep 0 of `round`, traced
    /// like a superstep around [`host_decide`].
    pub(crate) fn host_pass<R>(&mut self, round: u32, items: usize, f: impl FnOnce() -> R) -> R {
        let mut sub = self.sub_profiler();
        let out = sub.scope("superstep", |p| host_decide(p, items, f));
        self.emit_tree(sub, SpanBackend::Host, round, 0, "phase1");
        out
    }

    /// The `superstep` hook: beats the watchdog, forwards a rate-limited
    /// live snapshot, and emits the `superstep` event of a driver that
    /// traces its supersteps (`step.tallies` set).
    pub(crate) fn superstep(&mut self, step: &Superstep) {
        if let Some(progress) = self.progress.as_mut() {
            let counts = Counts::from_counts(step.active, step.moved, step.vertices, step.arcs);
            let phase = "phase1";
            progress.superstep(step.round, phase, step.superstep, step.modularity, counts);
        }
        let Some(tallies) = step.tallies else {
            return;
        };
        self.emit(|| TraceEvent::Superstep {
            round: step.round,
            superstep: step.superstep,
            active: step.active as u64,
            moved: step.moved as u64,
            pruned: (step.vertices - step.active) as u64,
            unmoved: step.active.saturating_sub(step.moved) as u64,
            modularity: step.modularity,
            delta_q: step.delta_q,
            decide_tally: tallies.decide,
            weight_tally: tallies.weight,
            hash_occupancy: tallies.hash.occupancy(),
            hash_evictions: tallies.hash.shared_evictions,
        });
    }

    /// One per-round (or phase-boundary) progress snapshot: a
    /// deterministic `progress` event when the sink wants events, and
    /// always forwarded to the recorder when live (round boundaries bypass
    /// the rate limiter, so they are never dropped).
    pub(crate) fn progress(
        &mut self,
        round: u32,
        phase: &str,
        superstep: u32,
        modularity: f64,
        counts: Counts,
    ) {
        let Some(progress) = &self.progress else {
            return;
        };
        let live = progress.live;
        if !live && !self.tracing() {
            return;
        }
        let snap = progress.snap(round, phase, superstep, modularity, counts);
        self.emit(|| snap.to_trace_event());
        if live {
            recorder::observe_progress(&snap);
        }
    }

    /// The `round_end` hook: the `round_end` event and the round's
    /// progress snapshot (`progress` names its phase and the arcs it
    /// reports). The event carries phase 1's Q when the driver tracks one,
    /// else the flattened Q `flat_q` computes; the snapshot carries the
    /// flattened Q. `flat_q` runs only when the round is observed.
    pub(crate) fn round_end(
        &mut self,
        round: u32,
        supersteps: u32,
        communities: usize,
        phase1_q: Option<f64>,
        flat_q: impl FnOnce() -> f64,
        (phase, arcs): (&str, usize),
    ) {
        let live = self.progress.as_ref().is_some_and(|p| p.live);
        if !live && !self.tracing() {
            return;
        }
        let shown = flat_q();
        self.emit(|| TraceEvent::RoundEnd {
            round,
            supersteps,
            modularity: phase1_q.unwrap_or(shown),
            communities: communities as u64,
        });
        let counts = Counts {
            arcs: arcs as u64,
            ..Counts::default()
        };
        self.progress(round, phase, supersteps, shown, counts);
    }
}

/// One BSP superstep as the [`Observer::superstep`] hook sees it.
pub(crate) struct Superstep {
    /// Hierarchy round.
    pub round: u32,
    /// Superstep index within the round.
    pub superstep: u32,
    /// Vertices of the round's graph.
    pub vertices: usize,
    /// Vertices classified active.
    pub active: usize,
    /// Vertices that moved.
    pub moved: usize,
    /// Modularity after the superstep.
    pub modularity: f64,
    /// Change of modularity over the previous superstep.
    pub delta_q: f64,
    /// Arcs swept so far in the round (an estimate, for progress).
    pub arcs: u64,
    /// The superstep's kernel tallies; `None` for a driver whose
    /// supersteps reach live progress only.
    pub tallies: Option<StepTallies>,
}

/// The kernel tallies a traced superstep carries.
#[derive(Clone, Copy)]
pub(crate) struct StepTallies {
    /// DecideAndMove traffic.
    pub decide: MemTally,
    /// Weight-maintenance traffic.
    pub weight: MemTally,
    /// Hashtable placement (default for drivers without one).
    pub hash: TableStats,
}

/// Live progress for one driver: bounded-frequency snapshots to the
/// flight recorder plus watchdog heartbeats. The constructor samples the
/// recorder's global switches, so steady-state supersteps cost two branch
/// checks when observation is off.
#[derive(Debug)]
pub(crate) struct ProgressReporter {
    driver: &'static str,
    limiter: ProgressLimiter,
    live: bool,
    watchdog: bool,
}

impl ProgressReporter {
    /// Creates a reporter for `driver` (`"louvain"`, `"multi-gpu"`, …).
    pub(crate) fn new(driver: &'static str) -> Self {
        Self {
            driver,
            limiter: ProgressLimiter::default_cadence(),
            live: recorder::progress_active(),
            watchdog: recorder::watchdog_armed(),
        }
    }

    fn snap(
        &self,
        round: u32,
        phase: &str,
        superstep: u32,
        q: f64,
        stats: Counts,
    ) -> ProgressSnapshot {
        ProgressSnapshot {
            driver: self.driver.to_string(),
            round,
            phase: phase.to_string(),
            superstep,
            modularity: q,
            active_frac: stats.active_frac,
            moved_frac: stats.moved_frac,
            arcs: stats.arcs,
            rss_bytes: gala_telemetry::mem::rss_bytes().unwrap_or(0),
        }
    }

    /// Per-superstep observation: beats the watchdog (every call) and
    /// forwards a snapshot to the recorder at most once per cadence. Never
    /// reaches the trace: superstep-granularity snapshots are rate limited
    /// by wall clock and would make trace content timing-dependent.
    pub(crate) fn superstep(
        &mut self,
        round: u32,
        phase: &str,
        superstep: u32,
        q: f64,
        stats: Counts,
    ) {
        if self.watchdog {
            recorder::heartbeat(&format!("{}/{phase} r{round} s{superstep}", self.driver));
        }
        if !self.live || !self.limiter.ready() {
            return;
        }
        recorder::observe_progress(&self.snap(round, phase, superstep, q, stats));
    }
}

/// The work counters carried by a snapshot, bundled so call sites stay
/// readable: fractions in `0..=1`, arcs processed so far in the phase.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Counts {
    /// Fraction of vertices classified active (0 when not applicable).
    pub active_frac: f64,
    /// Fraction of evaluated vertices that moved.
    pub moved_frac: f64,
    /// Arcs processed so far in this phase.
    pub arcs: u64,
}

impl Counts {
    /// Builds the fractions from raw vertex counts (0 when `n == 0`).
    pub(crate) fn from_counts(active: usize, moved: usize, n: usize, arcs: u64) -> Self {
        let frac = |num: usize| {
            if n == 0 {
                0.0
            } else {
                num as f64 / n as f64
            }
        };
        Self {
            active_frac: frac(active),
            moved_frac: frac(moved),
            arcs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_telemetry::{NullSink, VecSink};

    #[test]
    fn counts_fractions_are_safe_on_empty_graphs() {
        let c = Counts::from_counts(0, 0, 0, 0);
        assert_eq!(c.active_frac, 0.0);
        assert_eq!(c.moved_frac, 0.0);
        let c = Counts::from_counts(3, 1, 4, 10);
        assert!((c.active_frac - 0.75).abs() < 1e-12);
        assert!((c.moved_frac - 0.25).abs() < 1e-12);
        assert_eq!(c.arcs, 10);
    }

    #[test]
    fn progress_emits_one_event_to_an_enabled_sink() {
        let mut sink = VecSink::default();
        let mut obs = Observer::new(Some(&mut sink), Profiler::disabled());
        obs.start("test-driver");
        let counts = Counts::from_counts(8, 4, 16, 99);
        obs.progress(2, "phase1", 7, 0.5, counts);
        drop(obs);
        assert_eq!(sink.events.len(), 1);
        match &sink.events[0] {
            TraceEvent::Progress {
                driver,
                round,
                phase,
                superstep,
                modularity,
                arcs,
                ..
            } => {
                assert_eq!(driver, "test-driver");
                assert_eq!(*round, 2);
                assert_eq!(phase, "phase1");
                assert_eq!(*superstep, 7);
                assert_eq!(*modularity, 0.5);
                assert_eq!(*arcs, 99);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn disabled_sink_and_inactive_recorder_emit_nothing() {
        // NullSink::emit debug-asserts if called, so this proves the gate.
        let mut sink = NullSink;
        let mut obs = Observer::new(Some(&mut sink), Profiler::disabled());
        obs.start("test-driver");
        obs.progress(0, "phase1", 0, 0.0, Counts::default());
        obs.round_end(0, 1, 1, None, || panic!("unobserved"), ("phase1", 0));
        let step = Superstep {
            round: 0,
            superstep: 0,
            vertices: 1,
            active: 1,
            moved: 0,
            modularity: 0.0,
            delta_q: 0.0,
            arcs: 0,
            tallies: Some(StepTallies {
                decide: MemTally::new(),
                weight: MemTally::new(),
                hash: TableStats::default(),
            }),
        };
        obs.superstep(&step);
        assert!(!obs.sub_profiler().is_enabled());
    }
}
