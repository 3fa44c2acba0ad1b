#!/usr/bin/env python3
"""End-to-end benchmark of `gala detect`; see README.md beside this file.

    python3 e2ebench/run.py --workload sbm-strong --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds `gala` and the in-process helper,
generates the workload's input graphs from --seed, then either

* (--trace 0) times `gala detect` as a child process at every hardware
  thread, at one thread, and with `--algorithm sequential`, checking every
  assignment it writes; or
* (--trace 1) runs the helper's traced layer-by-layer replica of
  `Louvain::run` beside the untraced library call.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Lines before it are the human-readable report.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Wall-clock cap on any one child process.
CHILD_TIMEOUT_S = 120.0

# Most of the measuring window that re-generating inputs may take.
GEN_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    kind: str  # `gala generate` generator
    n: int  # `--n`
    mixing: float  # `--mixing` (ignored by rmat)
    backend: str  # `gala detect --backend`
    instances: int  # graphs generated per run, seeds derived from --seed
    tiny_n: int  # `--n` under --tiny (smoke tests)


WORKLOADS = {
    "sbm-strong": Workload("sbm", 20_000, 0.2, "native", 14, 1_500),
    "lfr-weak": Workload("lfr", 12_000, 0.5, "native", 20, 1_500),
    "rmat-skew": Workload("rmat", 16_384, 0.0, "native", 10, 2_048),
    "sim-sbm": Workload("sbm", 6_000, 0.2, "sim", 20, 1_000),
}

# Metric name -> unit, in the report's order.
END_TO_END = {
    "wall_s": "s",
    "wall_s_1t": "s",
    "seq_wall_s": "s",
    "speedup_vs_seq": "x",
    "modularity": "Q",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "io.parse_s": "s",
    "io.parse_ns_per_arc": "ns/arc",
    "builder.build_s": "s",
    "classify.s": "s",
    "classify.active_frac": "ratio",
    "decide.s": "s",
    "decide.arc_visits": "count",
    "decide.ns_per_arc": "ns/arc",
    "decide.hash_frac": "ratio",
    "decide.moved_per_active": "ratio",
    "apply.s": "s",
    "weight_update.s": "s",
    "modularity.s": "s",
    "snapshot.s": "s",
    "supersteps": "count",
    "supersteps.round0": "count",
    "rounds": "count",
    "contract.s": "s",
    "contract.ns_per_arc": "ns/arc",
    "flatten.s": "s",
    "sim.cycles": "cycles",
    "sim.ns_per_cycle": "ns/cycle",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "q_gap_vs_seq": "Q",
    "nmi_vs_seq": "ratio",
    "failed_frac": "ratio",
}


class BenchError(Exception):
    """A failure of the benchmark itself (build, missing files, a helper
    crash): the run ends without a result line and a non-zero exit."""


def tail_percentile(samples, beyond=10):
    """The highest whole percentile p >= 50 that has at least `beyond`
    samples above its nearest-rank value, as (p, value); None when even the
    median has fewer (fewer than 2 * beyond samples)."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)  # nearest rank, ceil(p * n / 100)
        if n - rank >= beyond:
            return p, xs[rank - 1]
    return None


def summarize(samples):
    """Median, tail percentile, count and spread of one metric's samples."""
    xs = sorted(samples)
    med = statistics.median(xs)
    tail = tail_percentile(xs)
    out = {"median": med, "samples": len(xs), "min": xs[0], "max": xs[-1]}
    if len(xs) >= 2 and med:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out["iqr_frac"] = (q3 - q1) / med
    out["tail"] = None if tail is None else {"percentile": tail[0], "value": tail[1]}
    return out


def instance_seeds(seed, count):
    """Generator seeds of a run's input graphs: distinct per (seed, i)."""
    return [seed * 64 + i for i in range(count)]


def hardware_threads():
    return len(os.sched_getaffinity(0))


def run_child(helper, args, env, stdout_path, timeout=CHILD_TIMEOUT_S):
    """Runs a child to completion through the helper's `spawn`, with stdout
    and stderr in files, so the pipe never closes early. The helper, not
    this process, spawns it: exec folds the spawner's peak RSS into the
    child's, and the helper's is about 2.5 MB where this driver's is about
    15 MB. Returns the child's wall time, its busy and stolen CPU ticks,
    exit code (minus the signal number when a signal ended it), whether it
    timed out, peak RSS in MB and stderr text."""
    err_path = stdout_path.with_suffix(".err")
    r = helper_json([str(helper), "spawn", "--stdout", str(stdout_path),
                     "--stderr", str(err_path), "--timeout", str(timeout), "--", *args],
                    env=env, timeout=timeout + 30)
    return {
        "wall": r["wall_s"],
        "stolen": r["steal_ticks"],
        "runnable": r["busy_ticks"] + r["steal_ticks"],
        "code": -r["signal"] if r["code"] is None else r["code"],
        "timed_out": r["timed_out"],
        "rss_mb": r["maxrss_kb"] / 1024.0,
        "stderr": err_path.read_text(errors="replace"),
    }


def unstolen(children):
    """The children's wall times less the share of them the hypervisor
    stole: what they would have taken on vCPUs of their own. The share is
    pooled over the group (a run's children of one kind), stolen ticks over
    busy plus stolen ticks, because the 10 ms ticks of /proc/stat are too
    coarse to read it child by child. This is the time every timing metric
    reports; the raw wall times stay in the run's details."""
    runnable = sum(c["runnable"] for c in children)
    steal = sum(c["stolen"] for c in children) / runnable if runnable > 0 else 0.0
    return steal, [c["wall"] * (1.0 - steal) for c in children]


def cargo_build(target_dir):
    """Builds `gala` and the helper into `target_dir`; returns both paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "gala-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"`{' '.join(cmd)}` failed:\n{proc.stderr}")
    release = target_dir / "release"
    return release / "gala", release / "gala-e2ebench"


def helper_json(args, env=None, timeout=CHILD_TIMEOUT_S):
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, **(env or {})), timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"`{' '.join(map(str, args))}` failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def generate(gala, helper, w, seed, work, tiny):
    """Writes the run's input graphs. Returns their paths, the command that
    writes graph i to a given path, and one record per generation."""
    n = w.tiny_n if tiny else w.n
    seeds = instance_seeds(seed, w.instances)

    def command(i, out):
        return [str(gala), "generate", w.kind, "--out", str(out), "--n", str(n),
                "--seed", str(seeds[i]), "--mixing", str(w.mixing)]

    paths = [work / f"g{i}.txt" for i in range(len(seeds))]
    records = []
    for i, path in enumerate(paths):
        child = run_child(helper, command(i, path), {}, path.with_suffix(".stdout"))
        if child["code"] != 0:
            raise BenchError(f"gala generate failed ({child['code']}):\n{child['stderr']}")
        records.append({"pass": -1, "graph": i, "config": "gen", "child": child,
                        "wall": child["wall"], "rss_mb": child["rss_mb"],
                        "problem": None, "stderr": ""})
    return paths, command, records


def problem_of(child):
    """Why a child counts as failed, or None."""
    if child["timed_out"]:
        return f"killed after {CHILD_TIMEOUT_S:g} s"
    if child["code"] != 0:
        return f"exit code {child['code']}"
    if "panicked" in child["stderr"]:
        return "panic on stderr"
    return None


def measure_detect(gala, helper, w, graphs, regenerate, work, deadline, threads, records):
    """Times `gala detect` until `deadline`, appending to `records`. A visit
    runs the three configurations on one graph, in an order that rotates
    from graph to graph and pass to pass; visits cycle over the graphs in
    passes. The first pass always runs whole; after it, another visit
    starts only if a visit of mean length ends inside the window.

    After a visit, while re-generating has taken less than GEN_SHARE of
    the window, the visit's graph is generated again and must come out
    byte for byte the same. These are setup_s's samples: generation is
    short and its speed drifts with the machine's state over seconds, so
    the set-up's own generations, back to back, all read one state."""
    configs = [
        ("gala", {"GALA_THREADS": str(threads)}, ["--algorithm", "gala", "--backend", w.backend]),
        ("gala1", {"GALA_THREADS": "1"}, ["--algorithm", "gala", "--backend", w.backend]),
        ("seq", {"GALA_THREADS": str(threads)}, ["--algorithm", "sequential"]),
    ]
    start = time.perf_counter()
    gen_s = 0.0
    visit = 0
    while True:
        p, gi = divmod(visit, len(graphs))
        k = (p + gi) % len(configs)
        for name, env, extra in configs[k:] + configs[:k]:
            out = work / f"g{gi}.p{p}.{name}.txt"
            child = run_child(
                helper,
                [str(gala), "detect", str(graphs[gi]), *extra, "--output", str(out), "--quiet"],
                env, out.with_suffix(".stdout"))
            problem = problem_of(child)
            if problem is None and not out.is_file():
                problem = "no assignment file"
            records.append({"pass": p, "graph": gi, "config": name, "child": child,
                            "wall": child["wall"], "rss_mb": child["rss_mb"],
                            "output": out, "problem": problem,
                            "stderr": child["stderr"][-2000:] if problem else ""})
        if gen_s < GEN_SHARE * (time.perf_counter() - start):
            out = work / f"g{gi}.p{p}.gen.txt"
            child = run_child(helper, regenerate(gi, out), {}, out.with_suffix(".stdout"))
            gen_s += child["wall"]
            problem = problem_of(child)
            if problem is None and (not out.is_file()
                                    or out.read_bytes() != graphs[gi].read_bytes()):
                problem = "the same seed generated a different graph"
            out.unlink(missing_ok=True)
            records.append({"pass": p, "graph": gi, "config": "gen", "child": child,
                            "wall": child["wall"], "rss_mb": child["rss_mb"],
                            "problem": problem,
                            "stderr": child["stderr"][-2000:] if problem else ""})
        visit += 1
        now = time.perf_counter()
        if visit >= len(graphs) and now + (now - start) / visit > deadline:
            return


def samples_of(records, config, key):
    """`key` of every run of `config` that succeeded."""
    return [r[key] for r in records if r["config"] == config and r["problem"] is None]


def end_to_end(gala, helper, w, graphs, regenerate, records, work, seconds, threads):
    """Trace-0 mode, after the set-up's `records`. The measuring window of
    `seconds` opens with the traced reference run of every graph, then
    fills with visits. Each kind of child (a configuration, or generate)
    shares one stolen share over the run."""
    deadline = time.perf_counter() + seconds
    ref = helper_json([str(helper), "trace", "--backend", w.backend, "--seconds", "0",
                       "--reference-dir", str(work), *map(str, graphs)])
    measure_detect(gala, helper, w, graphs, regenerate, work, deadline, threads, records)
    for kind in ("gen", "gala", "gala1", "seq"):
        mine = [r for r in records if r["config"] == kind]
        steal, seconds = unstolen([r.pop("child") for r in mine])
        for r, secs in zip(mine, seconds):
            r.update(seconds=secs, steal=steal)
    checks = []
    for gi, graph in enumerate(graphs):
        mine = [r for r in records if r["graph"] == gi and r["problem"] is None
                and r["config"] != "gen"]
        args = [str(helper), "check", "--graph", str(graph),
                "--reference", str(work / f"g{gi}.ref")]
        for r in mine:
            args += ["--seq" if r["config"] == "seq" else "--gala", str(r["output"])]
        verdict = helper_json(args)
        for r in mine:
            v = verdict["files"][str(r["output"])]
            if v != "ok":
                r["problem"] = v
        checks.append(verdict)
    failed = [r for r in records if r["problem"] is not None]
    samples = {
        "wall_s": samples_of(records, "gala", "seconds"),
        "wall_s_1t": samples_of(records, "gala1", "seconds"),
        "seq_wall_s": samples_of(records, "seq", "seconds"),
        "peak_rss_mb": samples_of(records, "gala", "rss_mb"),
        "setup_s": [r["seconds"] for r in records
                    if r["config"] == "gen" and r["pass"] >= 0 and r["problem"] is None],
    }
    complete = all(samples.values()) and all(
        c["q_gala"] is not None and c["q_seq"] is not None for c in checks)
    metrics = {}
    if complete:
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        metrics["speedup_vs_seq"] = metrics["seq_wall_s"] / metrics["wall_s"]
        metrics["modularity"] = statistics.fmean(c["q_gala"] for c in checks)
    details = {
        "shapes": ref["shapes"],
        "shuffle_degree_threshold": ref["shuffle_degree_threshold"],
        "passes": 1 + max((r["pass"] for r in records), default=-1),
        "summary": {k: summarize(v) for k, v in samples.items() if v},
        "raw_wall": {c: summarize(samples_of(records, c, "wall") or [0.0])
                     for c in ("gala", "gala1", "seq")},
        "steal": summarize([r["steal"] for r in records if r["config"] != "gen"] or [0.0]),
        "quality": [{k: c[k] for k in ("q_gala", "q_seq", "nmi")}
                    for c in checks],
        "failures": [{k: str(r[k]) for k in ("pass", "graph", "config", "problem", "stderr")}
                     for r in failed],
        "runs": [[r["graph"], r["pass"], r["config"], r["wall"], r["steal"], r["rss_mb"]]
                 for r in records],
    }
    attempted = len(records) + len(graphs)
    n_failed = len(failed) + ref["failed"]
    return metrics, attempted, n_failed, complete, details


def per_layer(helper, w, graphs, seconds):
    t = helper_json([str(helper), "trace", "--backend", w.backend, "--seconds", str(seconds),
                     "--untraced", *map(str, graphs)])
    metrics = {k: v for k, v in t["metrics"].items() if k in PER_LAYER}
    metrics["failed_frac"] = t["failed"] / t["attempted"]
    complete = all(isinstance(metrics.get(k), (int, float)) for k in PER_LAYER)
    details = {"shapes": t["shapes"], "passes": t["passes"], "errors": t["errors"],
               "shuffle_degree_threshold": t["shuffle_degree_threshold"],
               "trace.wall_s": t["metrics"].get("trace.wall_s")}
    return metrics, t["attempted"], t["failed"], complete, details


def span(values, fmt):
    lo, hi = min(values), max(values)
    return fmt.format(lo) if lo == hi else f"{fmt.format(lo)}..{fmt.format(hi)}"


def report(workload, args, context, details, metrics, units):
    """The human-readable report printed before the result line."""
    shapes = details["shapes"]
    lines = [
        f"workload {workload}  seed {args.seed}  trace {args.trace}  "
        f"hardware_threads {context['hardware_threads']}  {context['rustc']}",
        f"  inputs: {len(shapes)} graphs, n={span([s['vertices'] for s in shapes], '{}')} "
        f"arcs={span([s['arcs'] for s in shapes], '{}')} "
        f"max_degree={span([s['max_degree'] for s in shapes], '{}')} "
        f"degree<{details['shuffle_degree_threshold']}: "
        f"{span([s['small_degree_frac'] for s in shapes], '{:.3f}')}",
    ]
    for name, unit in units.items():
        line = f"  {name:<24} {metrics.get(name, float('nan')):.6g} {unit}"
        summ = details.get("summary", {}).get(name)
        if summ:
            tail = summ["tail"]
            tail_s = ("no percentile has 10 samples beyond it" if tail is None
                      else f"p{tail['percentile']}={tail['value']:.6g}")
            line += (f"  (median of {summ['samples']}, range {summ['min']:.6g}.."
                     f"{summ['max']:.6g}, IQR {summ.get('iqr_frac', 0):.1%} of median, "
                     f"{tail_s})")
        lines.append(line)
    if "raw_wall" in details:
        raw = details["raw_wall"]
        lines.append(
            f"  raw wall medians: gala {raw['gala']['median']:.6g} s, "
            f"gala1 {raw['gala1']['median']:.6g} s, seq {raw['seq']['median']:.6g} s; "
            f"median steal {details['steal']['median']:.1%}")
        q = [c for c in details["quality"] if c["nmi"] is not None]
        if q:
            lines.append(
                f"  vs sequential, from the assignment files: "
                f"Q_seq {statistics.fmean(c['q_seq'] for c in q):.6g}, "
                f"q_gap {statistics.fmean(c['q_seq'] - c['q_gala'] for c in q):.6g}, "
                f"NMI {statistics.fmean(c['nmi'] for c in q):.6g} "
                f"(means over {len(q)} graphs)")
    return "\n".join(lines)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="generate tiny graphs (smoke tests), same code paths")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0:
        raise BenchError("--seed must be >= 0")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "gala-cli").is_dir():
        raise BenchError(f"{ROOT} is not a checkout of the repository (no crates/gala-cli)")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    gala, helper = cargo_build(target)
    w = WORKLOADS[args.workload]
    threads = hardware_threads()
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        graphs, regenerate, records = generate(gala, helper, w, args.seed, work, args.tiny)
        if args.trace == 0:
            units = END_TO_END
            metrics, attempted, failed, complete, details = end_to_end(
                gala, helper, w, graphs, regenerate, records, work, args.seconds, threads)
        else:
            units = PER_LAYER
            metrics, attempted, failed, complete, details = per_layer(
                helper, w, graphs, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context = {"hardware_threads": threads, "rustc": rustc}
    details.update(context, workload=args.workload, seed=args.seed, trace=args.trace,
                   generator={"kind": w.kind, "n": w.tiny_n if args.tiny else w.n,
                              "mixing": w.mixing, "backend": w.backend,
                              "seeds": instance_seeds(args.seed, w.instances)},
                   metrics=metrics)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, default=str))
    print(report(args.workload, args, context, details, metrics, units))
    result = {
        "correct": complete and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                    if k in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        sys.exit(2)
