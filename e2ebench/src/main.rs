//! `gala-e2ebench`: the in-process half of the end-to-end benchmark.
//! `run.py` drives it; each subcommand prints one JSON object on stdout.
//!
//! ```text
//! gala-e2ebench trace [--backend native|sim] [--seconds S] [--untraced]
//!                     [--reference-dir DIR] GRAPH...
//! gala-e2ebench check --graph G --reference R [--gala A]... [--seq S]...
//! gala-e2ebench spawn --stdout F --stderr F --timeout S -- PROGRAM [ARG]...
//! ```
//!
//! `trace` repeats passes over the graphs until `S` seconds are used (at
//! least one pass). Each pass makes one traced run per graph, and with
//! `--untraced` also one plain `Louvain::run`, which must match the traced
//! run bit-for-bit. It prints each graph's shape and, per per-layer metric,
//! the median over passes. With `--untraced` it also runs the sequential
//! Louvain once per graph for `q_gap_vs_seq` and `nmi_vs_seq`.
//! `--reference-dir` writes each graph's traced partition as `<stem>.ref`
//! assignment files.
//!
//! `check` validates assignment files written by `gala detect --output`:
//! every `--gala` file must equal the reference up to labels, every `--seq`
//! file the first readable `--seq` file. It prints per-file verdicts, the
//! modularity of the first GALA and sequential files, and their NMI.
//!
//! `spawn` runs one child process and reports its wall time, exit status,
//! peak RSS and the CPU ticks around it (see `src/spawn.rs`).

mod quality;
mod spawn;
mod traced;

use gala_core::backend::BackendKind;
use gala_core::metrics::nmi;
use gala_core::sequential::{sequential_louvain, SequentialConfig};
use gala_graph::io;
use gala_telemetry::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use traced::{detect_config, replica_mismatch, traced_run, untraced_run, Layers, Shape};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("trace") => trace(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("spawn") => spawn::spawn(&args[1..]),
        _ => Err("usage: gala-e2ebench trace|check|spawn ... (see src/main.rs)".to_string()),
    };
    match result {
        Ok(json) => {
            println!("{}", json.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gala-e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The per-layer metrics of one pass over `k` graphs: times and counts per
/// graph (means), ratios over the pass's sums. `untraced_s` is the pass's
/// summed untraced wall time, when it ran.
fn pass_metrics(l: &Layers, k: usize, untraced_s: Option<f64>) -> Vec<(&'static str, f64)> {
    let k = k as f64;
    let per = |x: f64| x / k;
    let mut m = vec![
        ("io.parse_s", per(l.parse_s)),
        (
            "io.parse_ns_per_arc",
            ratio(l.parse_s * 1e9, l.input_arcs as f64),
        ),
        ("builder.build_s", per(l.build_s)),
        ("classify.s", per(l.classify_s)),
        (
            "classify.active_frac",
            ratio(l.active as f64, l.classified as f64),
        ),
        ("decide.s", per(l.decide_s)),
        ("decide.arc_visits", per(l.arc_visits as f64)),
        (
            "decide.ns_per_arc",
            ratio(l.decide_s * 1e9, l.arc_visits as f64),
        ),
        (
            "decide.hash_frac",
            ratio(l.routed_hash as f64, l.routed_total as f64),
        ),
        (
            "decide.moved_per_active",
            ratio(l.moved as f64, l.active as f64),
        ),
        ("apply.s", per(l.apply_s)),
        ("weight_update.s", per(l.weight_update_s)),
        ("modularity.s", per(l.modularity_s)),
        ("snapshot.s", per(l.snapshot_s)),
        ("supersteps", per(l.supersteps as f64)),
        ("supersteps.round0", per(l.supersteps_round0 as f64)),
        ("rounds", per(l.rounds as f64)),
        ("contract.s", per(l.contract_s)),
        (
            "contract.ns_per_arc",
            ratio(l.contract_s * 1e9, l.contract_arcs as f64),
        ),
        ("flatten.s", per(l.flatten_s)),
        ("sim.cycles", per(l.cycles)),
        (
            "sim.ns_per_cycle",
            ratio((l.decide_s + l.weight_update_s) * 1e9, l.cycles),
        ),
        ("trace.wall_s", per(l.wall_s)),
        (
            "trace.unattributed_frac",
            ratio(l.wall_s - l.attributed_s(), l.wall_s),
        ),
    ];
    if let Some(u) = untraced_s {
        m.push((
            "trace.overhead_frac",
            ratio(l.wall_s + l.bookkeeping_s - u, u),
        ));
    }
    m
}

fn trace(args: &[String]) -> Result<Value, String> {
    let mut backend = BackendKind::Native;
    let mut seconds = 0.0f64;
    let mut untraced = false;
    let mut reference_dir: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--backend" => backend = value()?.parse()?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--untraced" => untraced = true,
            "--reference-dir" => reference_dir = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => files.push(PathBuf::from(file)),
        }
    }
    if files.is_empty() {
        return Err("trace needs at least one graph file".to_string());
    }
    let cfg = detect_config(backend);
    let start = Instant::now();
    let mut shapes: Vec<Shape> = Vec::new();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors: Vec<String> = Vec::new();
    let mut passes = 0usize;
    let (mut q_gaps, mut nmis): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    loop {
        let pass_start = Instant::now();
        let mut sum = Layers::default();
        let mut untraced_s = 0.0;
        for file in &files {
            let t = traced_run(file, &cfg).map_err(|e| format!("{}: {e}", file.display()))?;
            attempted += 1;
            if passes == 0 {
                shapes.push(Shape::of(&t.graph));
                if let Some(dir) = &reference_dir {
                    write_reference(dir, file, &t.partition)?;
                }
                if untraced {
                    let seq = sequential_louvain(&t.graph, SequentialConfig::default());
                    q_gaps.push(
                        quality::modularity(&t.graph, &seq.partition)
                            - quality::modularity(&t.graph, &t.partition),
                    );
                    nmis.push(nmi(&t.partition, &seq.partition));
                }
            }
            if untraced {
                let (r, secs) =
                    untraced_run(file, &cfg).map_err(|e| format!("{}: {e}", file.display()))?;
                untraced_s += secs;
                if let Some(why) =
                    replica_mismatch((&t.partition, t.modularity), (&r.partition, r.modularity))
                {
                    failed += 1;
                    errors.push(format!("{}: {why}", file.display()));
                }
            }
            sum.add(&t.layers);
        }
        for (name, value) in pass_metrics(&sum, files.len(), untraced.then_some(untraced_s)) {
            samples.entry(name).or_default().push(value);
        }
        passes += 1;
        let used = start.elapsed().as_secs_f64();
        if used + pass_start.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    for (name, xs) in [("q_gap_vs_seq", q_gaps), ("nmi_vs_seq", nmis)] {
        if !xs.is_empty() {
            samples.insert(name, vec![xs.iter().sum::<f64>() / xs.len() as f64]);
        }
    }
    let shapes: Vec<Value> = shapes
        .iter()
        .zip(&files)
        .map(|(s, f)| {
            Value::object()
                .set("file", f.display().to_string())
                .set("vertices", s.vertices)
                .set("arcs", s.arcs)
                .set("max_degree", s.max_degree)
                .set("small_degree_frac", s.small_degree_frac)
        })
        .collect();
    let metrics = samples
        .into_iter()
        .fold(Value::object(), |m, (name, xs)| m.set(name, median(xs)));
    Ok(Value::object()
        .set("shapes", shapes)
        .set(
            "shuffle_degree_threshold",
            gala_core::kernels::SHUFFLE_DEGREE_THRESHOLD,
        )
        .set("passes", passes)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("errors", errors)
        .set("metrics", metrics))
}

fn write_reference(dir: &Path, graph_file: &Path, p: &gala_graph::Partition) -> Result<(), String> {
    let stem = graph_file
        .file_stem()
        .ok_or_else(|| format!("{}: no file name", graph_file.display()))?;
    let path = dir.join(stem).with_extension("ref");
    let write = || -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (v, c) in p.assignment().iter().enumerate() {
            writeln!(w, "{v} {c}")?;
        }
        w.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}

fn check(args: &[String]) -> Result<Value, String> {
    let (mut graph, mut reference) = (None, None);
    let (mut gala, mut seq): (Vec<String>, Vec<String>) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = it.next().ok_or(format!("{a} needs a value"))?.clone();
        match a.as_str() {
            "--graph" => graph = Some(v),
            "--reference" => reference = Some(v),
            "--gala" => gala.push(v),
            "--seq" => seq.push(v),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let graph = graph.ok_or("check needs --graph")?;
    let reference = reference.ok_or("check needs --reference")?;
    let g = io::load_edge_list(&graph).map_err(|e| format!("{graph}: {e}"))?;
    let n = g.num_vertices();
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| quality::parse_assignment(&text, n))
    };
    let reference_p = read(&reference).map_err(|e| format!("{reference}: {e}"))?;
    let mut verdicts: Vec<(String, Option<String>)> = Vec::new();
    let mut first_ok = |files: &[String], want: Option<&gala_graph::Partition>| {
        let mut first: Option<gala_graph::Partition> = None;
        for f in files {
            let verdict = match read(f) {
                Err(e) => Some(e),
                Ok(p) => {
                    let target = want.or(first.as_ref());
                    if target.is_some_and(|t| !quality::same_up_to_labels(&p, t)) {
                        Some(match want {
                            Some(_) => "partition differs from the traced reference".to_string(),
                            None => "partition differs from the first sequential run".to_string(),
                        })
                    } else {
                        first.get_or_insert(p);
                        None
                    }
                }
            };
            verdicts.push((f.clone(), verdict));
        }
        first
    };
    let gala_p = first_ok(&gala, Some(&reference_p));
    let seq_p = first_ok(&seq, None);
    let q_of = |p: &Option<gala_graph::Partition>| p.as_ref().map(|p| quality::modularity(&g, p));
    let q_gala = q_of(&gala_p);
    let q_seq = q_of(&seq_p);
    let nmi_v = match (&gala_p, &seq_p) {
        (Some(a), Some(b)) => Some(nmi(a, b)),
        _ => None,
    };
    let opt = |x: Option<f64>| x.map_or(Value::Null, Value::from);
    let files = verdicts.into_iter().fold(Value::object(), |o, (f, v)| {
        o.set(&f, v.unwrap_or_else(|| "ok".to_string()))
    });
    Ok(Value::object()
        .set("vertices", n)
        .set("q_gala", opt(q_gala))
        .set("q_seq", opt(q_seq))
        .set("nmi", opt(nmi_v))
        .set("files", files))
}
