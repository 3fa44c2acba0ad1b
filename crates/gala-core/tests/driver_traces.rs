//! Golden trace test: every hierarchy driver's event stream on one seeded
//! graph, compared line by line against `tests/data/driver_traces.golden`.
//!
//! Each event becomes one line: its JSON form with wall-clock fields
//! removed (`elapsed_ns` span counters, `rss_bytes`, and the totals of
//! `"ns"`-unit profile rows) and its bulky members (span trees, profile
//! rows, metric registries, tallies) replaced by an FNV-1a digest of
//! their scrubbed rendering. Floats render round-trip exact, so a line
//! matches only when kind, round, superstep, phase and every
//! deterministic payload are bit-identical. Each driver block ends with
//! digests of the result partition, its modularity bits and the run-level
//! profiler tree.
//!
//! On a mismatch the test writes the fresh rendering next to the build's
//! temporary files and names it in the failure message.

use gala_core::backend::BackendKind;
use gala_core::grappolo::grappolo_instrumented;
use gala_core::leiden::{leiden_instrumented, LeidenConfig};
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_core::multi_gpu::{run_full_instrumented, ContractMode, MultiGpuConfig};
use gala_core::sequential::{sequential_louvain_instrumented, SequentialConfig};
use gala_gpu::profile::{Profiler, SpanRecord};
use gala_graph::generators::sbm::PlantedPartition;
use gala_graph::{Graph, Partition};
use gala_telemetry::trace::span_to_json;
use gala_telemetry::{TraceEvent, Value, VecSink};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("data/driver_traces.golden");

/// Members whose content is summarised by a digest instead of inlined.
const DIGESTED: [&str; 5] = ["root", "spans", "registry", "decide_tally", "weight_tally"];

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
    let wall_unit = v.get("unit").and_then(Value::as_str) == Some("ns");
    let Value::Object(pairs) = &mut v else {
        unreachable!("events serialise to objects")
    };
    for (key, member) in pairs.iter_mut() {
        if key == "spans" && wall_unit {
            // Wall-clock rows keep their shape, not their measured charges.
            if let Value::Array(rows) = member {
                for row in rows {
                    if let Value::Object(fields) = row {
                        fields.retain(|(k, _)| k != "total" && k != "components");
                    }
                }
            }
        }
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

fn block(name: &str, sink: VecSink, prof: Profiler, partition: &Partition, q: f64) -> String {
    let mut out = format!("== {name}\n");
    for event in &sink.events {
        out.push_str(&event_line(event));
        out.push('\n');
    }
    let assignment = partition.assignment().iter().flat_map(|c| c.to_le_bytes());
    writeln!(
        out,
        "result partition={} communities={} q={:016x} profiler={}",
        fnv(assignment),
        partition.num_communities(),
        q.to_bits(),
        tree_digest(&prof.finish())
    )
    .expect("writing to a String cannot fail");
    out
}

fn louvain(name: &str, g: &Graph, config: LouvainConfig) -> String {
    let (mut sink, mut prof) = (VecSink::default(), Profiler::new());
    let r = Louvain::new(config).run_instrumented(g, &mut sink, &mut prof);
    block(name, sink, prof, &r.partition, r.modularity)
}

fn multi_gpu(name: &str, g: &Graph, contract: ContractMode) -> String {
    let (mut sink, mut prof) = (VecSink::default(), Profiler::new());
    let config = MultiGpuConfig {
        num_devices: 2,
        contract,
        ..MultiGpuConfig::default()
    };
    let r = run_full_instrumented(g, config, &mut sink, &mut prof);
    block(name, sink, prof, &r.partition, r.modularity)
}

fn render_all() -> String {
    let g = fixture_graph();
    let mut out = String::new();
    out += &louvain("louvain-sim", &g, LouvainConfig::default());
    out += &louvain(
        "louvain-native",
        &g,
        LouvainConfig {
            backend: BackendKind::Native,
            ..LouvainConfig::default()
        },
    );
    out += &louvain(
        "louvain-refine",
        &g,
        LouvainConfig {
            refine: true,
            ..LouvainConfig::default()
        },
    );
    out += &multi_gpu("run-full-host-2", &g, ContractMode::Host);
    out += &multi_gpu("run-full-partitioned-2", &g, ContractMode::Partitioned);

    let (mut sink, mut prof) = (VecSink::default(), Profiler::new());
    let r = leiden_instrumented(&g, LeidenConfig::default(), &mut sink, &mut prof);
    out += &block("leiden", sink, prof, &r.partition, r.modularity);

    let (mut sink, mut prof) = (VecSink::default(), Profiler::new());
    let r = sequential_louvain_instrumented(&g, SequentialConfig::default(), &mut sink, &mut prof);
    out += &block("sequential", sink, prof, &r.partition, r.modularity);

    let (mut sink, mut prof) = (VecSink::default(), Profiler::new());
    let r = grappolo_instrumented(&g, 1e-6, &mut sink, &mut prof);
    out += &block("grappolo", sink, prof, &r.partition, r.modularity);
    out
}

#[test]
fn driver_traces_match_golden_fixture() {
    let actual = render_all();
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("driver_traces.actual");
        std::fs::write(&path, &actual).expect("write actual trace rendering");
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "driver traces differ from the golden fixture at line {}; fresh rendering written to {}",
            first + 1,
            path.display()
        );
    }
}
