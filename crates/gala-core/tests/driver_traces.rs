//! Golden trace tests: every hierarchy driver's event stream on one seeded
//! graph, compared line by line against `tests/data/driver_traces.golden`,
//! and the phase-1-only entries against
//! `tests/data/driver_traces_phase1.golden`.
//!
//! Each event becomes one line: its JSON form with wall-clock fields
//! removed (`elapsed_ns` span counters and `rss_bytes`) and its bulky
//! members (span trees, metric registries, tallies) replaced by an FNV-1a
//! digest of their scrubbed rendering. Floats render round-trip exact, so a line
//! matches only when kind, round, superstep, phase and every
//! deterministic payload are bit-identical. Each driver block ends with
//! digests of the result partition, its modularity bits and the run-level
//! profiler tree.
//!
//! A third test runs every hierarchy driver with each observer channel
//! off in turn and checks that observation never changes the result and
//! that each channel sees what it sees in the fully observed run.
//!
//! On a mismatch a golden test writes the fresh rendering next to the
//! build's temporary files and names it in the failure message.

use gala_core::backend::BackendKind;
use gala_core::grappolo::grappolo_observed;
use gala_core::leiden::{leiden_observed, LeidenConfig};
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_core::multi_gpu::{self, ContractMode, MultiGpuConfig};
use gala_core::observe::Observer;
use gala_core::sequential::{sequential_louvain_observed, SequentialConfig};
use gala_gpu::profile::{Profiler, SpanRecord};
use gala_graph::generators::sbm::PlantedPartition;
use gala_graph::{Graph, Partition};
use gala_telemetry::trace::span_to_json;
use gala_telemetry::{TraceEvent, Value, VecSink};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("data/driver_traces.golden");
const GOLDEN_PHASE1: &str = include_str!("data/driver_traces_phase1.golden");

/// Members whose content is summarised by a digest instead of inlined.
const DIGESTED: [&str; 4] = ["root", "registry", "decide_tally", "weight_tally"];

fn fixture_graph() -> Graph {
    PlantedPartition {
        num_communities: 6,
        community_size: 12,
        internal_degree: 6.0,
        mixing: 0.3,
    }
    .generate(11)
    .graph
}

fn fnv(bytes: impl IntoIterator<Item = u8>) -> String {
    let h = bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("#{h:016x}")
}

/// Removes wall-clock members (`elapsed_ns`, `rss_bytes`) at any depth.
fn scrub(v: &mut Value) {
    match v {
        Value::Object(pairs) => {
            pairs.retain(|(k, _)| k != "elapsed_ns" && k != "rss_bytes");
            pairs.iter_mut().for_each(|(_, v)| scrub(v));
        }
        Value::Array(items) => items.iter_mut().for_each(scrub),
        _ => {}
    }
}

fn event_line(event: &TraceEvent) -> String {
    let mut v = event.to_json();
    scrub(&mut v);
    let Value::Object(pairs) = &mut v else {
        unreachable!("events serialise to objects")
    };
    for (key, member) in pairs.iter_mut() {
        if DIGESTED.contains(&key.as_str()) {
            *member = Value::String(fnv(member.to_string().into_bytes()));
        }
    }
    v.to_string()
}

fn tree_digest(tree: &SpanRecord) -> String {
    let mut v = span_to_json(tree);
    scrub(&mut v);
    fnv(v.to_string().into_bytes())
}

/// One driver entry point: runs on the graph under the observer and
/// returns the result partition and its modularity.
type Entry = fn(&Graph, &mut Observer) -> (Partition, f64);

fn louvain(g: &Graph, config: LouvainConfig, obs: &mut Observer) -> (Partition, f64) {
    let r = Louvain::new(config).run_observed(g, obs);
    (r.partition, r.modularity)
}

fn multi_gpu(g: &Graph, contract: ContractMode, obs: &mut Observer) -> (Partition, f64) {
    let config = MultiGpuConfig {
        num_devices: 2,
        contract,
        ..MultiGpuConfig::default()
    };
    let r = multi_gpu::run_full_observed(g, config, obs);
    (r.partition, r.modularity)
}

/// The eight hierarchy configurations of `driver_traces.golden`, in order.
fn hierarchy_drivers() -> [(&'static str, Entry); 8] {
    [
        ("louvain-sim", |g, obs| {
            louvain(g, LouvainConfig::default(), obs)
        }),
        ("louvain-native", |g, obs| {
            let config = LouvainConfig {
                backend: BackendKind::Native,
                ..LouvainConfig::default()
            };
            louvain(g, config, obs)
        }),
        ("louvain-refine", |g, obs| {
            let config = LouvainConfig {
                refine: true,
                ..LouvainConfig::default()
            };
            louvain(g, config, obs)
        }),
        ("run-full-host-2", |g, obs| {
            multi_gpu(g, ContractMode::Host, obs)
        }),
        ("run-full-partitioned-2", |g, obs| {
            multi_gpu(g, ContractMode::Partitioned, obs)
        }),
        ("leiden", |g, obs| {
            let r = leiden_observed(g, LeidenConfig::default(), obs);
            (r.partition, r.modularity)
        }),
        ("sequential", |g, obs| {
            let r = sequential_louvain_observed(g, SequentialConfig::default(), obs);
            (r.partition, r.modularity)
        }),
        ("grappolo", |g, obs| {
            let r = grappolo_observed(g, 1e-6, obs);
            (r.partition, r.modularity)
        }),
    ]
}

/// The phase-1-only entries of `driver_traces_phase1.golden`, in order.
fn phase1_drivers() -> [(&'static str, Entry); 4] {
    fn louvain(g: &Graph, backend: BackendKind, obs: &mut Observer) -> (Partition, f64) {
        let runner = Louvain::new(LouvainConfig {
            backend,
            ..LouvainConfig::default()
        });
        let (state, stats) = runner.run_phase1_observed(g, obs);
        (state.partition(), stats.modularity)
    }
    fn multi_gpu(g: &Graph, backend: BackendKind, obs: &mut Observer) -> (Partition, f64) {
        let config = MultiGpuConfig {
            num_devices: 2,
            backend,
            ..MultiGpuConfig::default()
        };
        let r = multi_gpu::run_phase1_observed(g, config, obs);
        (r.partition, r.modularity)
    }
    [
        ("louvain-phase1-sim", |g, obs| {
            louvain(g, BackendKind::Sim, obs)
        }),
        ("multi-gpu-phase1-2-sim", |g, obs| {
            multi_gpu(g, BackendKind::Sim, obs)
        }),
        ("louvain-phase1-native", |g, obs| {
            louvain(g, BackendKind::Native, obs)
        }),
        ("multi-gpu-phase1-2-native", |g, obs| {
            multi_gpu(g, BackendKind::Native, obs)
        }),
    ]
}

/// Which observer channels a run has on.
#[derive(Clone, Copy, Debug)]
enum Channels {
    /// Sink and profiler.
    Full,
    /// [`Observer::off`].
    Off,
    /// Profiler only, as `gala detect --report` without `--trace`.
    Profiler,
    /// Sink only.
    Sink,
}

/// What one observed run produced.
struct Observed {
    events: Vec<TraceEvent>,
    tree: SpanRecord,
    partition: Partition,
    q: f64,
}

fn observe(entry: Entry, g: &Graph, channels: Channels) -> Observed {
    let mut sink = VecSink::default();
    let mut obs = match channels {
        Channels::Full => Observer::new(Some(&mut sink), Profiler::new()),
        Channels::Off => Observer::off(),
        Channels::Profiler => Observer::new(None, Profiler::new()),
        Channels::Sink => Observer::new(Some(&mut sink), Profiler::disabled()),
    };
    let (partition, q) = entry(g, &mut obs);
    let tree = obs.finish();
    Observed {
        events: sink.events,
        tree,
        partition,
        q,
    }
}

fn events_block(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event_line(event));
        out.push('\n');
    }
    out
}

fn block(name: &str, run: &Observed) -> String {
    let mut out = format!("== {name}\n");
    out += &events_block(&run.events);
    let assignment = run
        .partition
        .assignment()
        .iter()
        .flat_map(|c| c.to_le_bytes());
    writeln!(
        out,
        "result partition={} communities={} q={:016x} profiler={}",
        fnv(assignment),
        run.partition.num_communities(),
        run.q.to_bits(),
        tree_digest(&run.tree)
    )
    .expect("writing to a String cannot fail");
    out
}

fn render(drivers: &[(&str, Entry)]) -> String {
    let g = fixture_graph();
    let runs = drivers
        .iter()
        .map(|&(name, entry)| block(name, &observe(entry, &g, Channels::Full)));
    runs.collect()
}

fn check_golden(actual: &str, golden: &str, file: &str) {
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{file}.actual"));
        std::fs::write(&path, actual).expect("write actual trace rendering");
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "driver traces differ from {file} at line {}; fresh rendering written to {}",
            first + 1,
            path.display()
        );
    }
}

#[test]
fn driver_traces_match_golden_fixture() {
    let actual = render(&hierarchy_drivers());
    check_golden(&actual, GOLDEN, "driver_traces.golden");
}

#[test]
fn phase1_traces_match_golden_fixture() {
    let actual = render(&phase1_drivers());
    check_golden(&actual, GOLDEN_PHASE1, "driver_traces_phase1.golden");
}

#[test]
fn each_observer_channel_sees_what_the_full_run_sees() {
    let g = fixture_graph();
    for (name, entry) in hierarchy_drivers() {
        let full = observe(entry, &g, Channels::Full);
        for channels in [Channels::Off, Channels::Profiler, Channels::Sink] {
            let run = observe(entry, &g, channels);
            let what = format!("{name} with {channels:?}");
            assert_eq!(run.partition, full.partition, "{what}: partition");
            assert_eq!(run.q.to_bits(), full.q.to_bits(), "{what}: modularity");
            match channels {
                Channels::Off => {
                    assert!(run.events.is_empty(), "{what}: events");
                    assert!(run.tree.children.is_empty(), "{what}: span tree");
                }
                Channels::Profiler => {
                    assert!(run.events.is_empty(), "{what}: events");
                    let digest = tree_digest(&run.tree);
                    assert_eq!(digest, tree_digest(&full.tree), "{what}: span tree");
                }
                Channels::Sink => {
                    let events = events_block(&run.events);
                    assert_eq!(events, events_block(&full.events), "{what}: events");
                    assert!(run.tree.children.is_empty(), "{what}: span tree");
                }
                Channels::Full => unreachable!("compared against itself"),
            }
        }
    }
}
