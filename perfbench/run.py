"""vulnminer benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload scan-mostly-clean --seed 1 \
        --seconds 20 --trace 0

Run it from the root of a checkout. It imports vulnminer from ``src/`` of
that checkout, sets up inside ``.perfbench_work/`` and deletes that again;
the set-up model is kept in ``.perfbench_cache/`` for later runs of the
same code. With ``--trace 0`` it repeats the workload's pass for
``--seconds``, twice at the least, and reports the end-to-end metrics with
times in reference seconds (see speed.py); with ``--trace 1`` it runs one
untraced and one traced pass, reports the per-layer metrics and writes the
spans to ``.perfbench_out/``. Human-readable lines come first; the last line of
standard output is the JSON result. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up repeats per run, for a median. Set-up generates the corpora: about
# 2 s on scan-mostly-clean, 0.9 s on localize-vuln-heavy and 0.25 s on train
# (2 vCPUs). The first set-up of a version of the code also trains the scan
# workloads' model.
SETUP_REPEATS = {"scan-mostly-clean": 3, "localize-vuln-heavy": 3, "train": 15}
# Set-up is mostly the corpus generator, which runs the taint oracle on each
# file it writes (about 1 ms); the probe gets its chance after each of those.
SETUP_PROBED = ("flows.taint_trace",)
# Passes per timed run at the least, so that pass_s is a median of two or
# more even on train, whose pass takes about 20 s.
MIN_PASSES = 2


def import_program():
    """Import vulnminer from this checkout's sources, never from elsewhere."""
    package = SRC / "vulnminer"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no vulnminer sources at {package}")
    sys.path.insert(0, str(SRC))
    import vulnminer
    if Path(vulnminer.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported vulnminer from "
                         f"{vulnminer.__file__}, not from {package}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "default"),
        "loadavg_start": list(os.getloadavg()),
    }


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------

def run_setups(w, spans, speed, args, base: Path, cache: Path):
    """Set up as often as the workload asks; the passes use the last one.

    Returns the inputs, the wall time of each set-up, the training times of
    set-ups that trained, and the median set-up in reference seconds. One
    probe covers all the set-ups, so that the machine's speed rests on
    every probe of the phase and not on the few of one short set-up.
    """
    probe = speed.Probe()
    probe.sample()
    walls, trained = [], []
    for k in range(1 if args.trace else SETUP_REPEATS[args.workload]):
        # Each set-up writes into a new directory, as a first set-up does:
        # rewriting existing files makes ext4 flush them at close, which
        # would time the disk.
        work = base / f"setup{k}"
        work.mkdir(parents=True)
        os.chdir(work)
        hooks = probe.hook({name: spans.SPANS[name] for name in SETUP_PROBED})
        watch = speed.Stopwatch(probe)
        try:
            inputs = w.setup(args.workload, args.seed, args.scale, work, cache)
        finally:
            spans.restore(hooks)
        walls.append(watch.seconds())
        if inputs.train_s is not None:
            trained.append(inputs.train_s)
    probe.sample()
    return inputs, walls, trained, probe.reference_seconds(w.median(walls))


def run_timed(w, name: str, inputs, seconds: float):
    """Repeat the workload's pass for ``seconds``; returns (passes, problems)."""
    passes, problems = [], []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        try:
            result = w.PASSES[name](inputs)
        except Exception:
            problems.append("exception: " + traceback.format_exc(limit=3))
            break
        problems += w.check(result, inputs)
        if passes and not same_outputs(passes[0], result):
            problems.append(f"pass {len(passes)}: outputs differ from pass 0")
        passes.append(result)
    return passes, problems


def same_outputs(a, b) -> bool:
    return (a.output == b.output and a.report_output == b.report_output
            and a.model_output == b.model_output)


def attempted_ops(result) -> int:
    """Files scanned, localizations run and trainings run in one pass."""
    return result.scan_files + len(result.reports) + (result.train_s > 0)


def end_to_end(w, passes, setup_s: float, failed: int, attempted: int):
    """Times in reference seconds (see speed.py), medians over the run."""
    q = w.quality(passes[0])
    return {
        "setup_s": metric(setup_s, "s"),
        "pass_s": metric(w.median([p.reference_s for p in passes]), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "verdict_f1": metric(q["f1"], "ratio"),
        "verdict_recall": metric(q["recall"], "ratio"),
        "stage1_recall_tau1": metric(q["stage1_recall"], "ratio"),
        "ok_share": metric(1.0 - ratio(failed, attempted), "ratio"),
    }


def named_metrics(w, name: str, passes, setup_wall_s, setup_train_s, e2e,
                  failed, attempted) -> dict:
    """The metrics under the names the workload documentation uses."""
    first = passes[0]
    q = w.quality(first)
    out = {
        "setup_s": e2e["setup_s"],
        "setup_wall_s": metric(w.median(setup_wall_s), "s"),
        "pass_s": e2e["pass_s"],
        "pass_wall_s": metric(w.median([p.wall_s for p in passes]), "s"),
        "peak_rss_mb": e2e["peak_rss_mb"],
        "failed_share": metric(ratio(failed, attempted), "ratio"),
        "stage1_recall_tau1": e2e["stage1_recall_tau1"],
    }
    if name == "train":
        out["train_s"] = metric(w.median([p.train_s for p in passes]), "s")
        out["test_f1"] = metric(q["f1"], "ratio")
        out["test_fnr"] = metric(q["fnr"], "ratio")
        return out
    if setup_train_s:
        out["train_s"] = metric(setup_train_s[0], "s")
    out["scan_files_per_s"] = metric(
        w.median([p.scan_files / p.scan_s for p in passes]), "1/s")
    out["verdict_f1"] = metric(q["f1"], "ratio")
    out["verdict_fnr"] = metric(q["fnr"], "ratio")
    if name == "localize-vuln-heavy":
        samples = [ms for p in passes for ms in p.localize_ms]
        out["localize_files_per_s"] = metric(
            w.median([ratio(len(p.reports), p.localize_s) for p in passes]),
            "1/s")
        out["localize_ms_p50"] = metric(w.percentile(samples, 50), "ms")
        out["localize_ms_p90"] = metric(w.percentile(samples, 90), "ms")
        out["localize_samples"] = metric(len(samples), "count")
        ok = sum(r.status == "ok" for r in first.reports)
        out["localization_rate"] = metric(ratio(ok, len(first.reports)),
                                          "ratio")
    return out


def per_layer(tracer, untraced, traced, cpu_s: float) -> dict:
    out = {}
    for span, entry in tracer.summary().items():
        out[f"{span}.calls"] = metric(entry["calls"], "count")
        out[f"{span}.self_ms"] = metric(entry["self_ms"], "ms")

    def with_base(key, num, den, unit="ratio", base_unit="count"):
        out[key] = metric(ratio(num, den), unit)
        out[key + ".base"] = metric(den, base_unit)

    files = len(traced.verdicts)
    stage2_runs = sum(v.score2 is not None for v in traced.verdicts)
    flagged = sum(v.vulnerable for v in traced.verdicts)
    localized = len(traced.reports)
    with_base("stage1.pass_ratio", stage2_runs, files)
    with_base("stage2.confirm_ratio", flagged, stage2_runs)
    with_base("localize.candidates_per_file",
              tracer.items("localize.generate_candidates"), localized,
              "count/file")
    with_base("localize.iterations_per_file",
              sum(r.iterations for r in traced.reports), localized,
              "count/file")
    with_base("frontend.parse.per_scanned_file",
              tracer.under("frontend.parse", "cascade.run_pipeline"),
              traced.scan_files, "count/file")
    with_base("frontend.parse.per_localized_file",
              tracer.under("frontend.parse", "localize.localize"), localized,
              "count/file")
    out["cascade.error_records"] = metric(len(traced.errors), "count")
    out["cascade.error_records.base"] = metric(traced.scan_files, "count")
    out["process.cpu_s"] = metric(cpu_s, "s")
    out["process.wall_s"] = metric(untraced.wall_s, "s")
    out["process.cpu_per_wall"] = metric(ratio(cpu_s, untraced.wall_s), "ratio")
    out["trace.overhead_s"] = metric(traced.wall_s - untraced.wall_s, "s")
    out["trace.overhead_share"] = metric(
        ratio(traced.wall_s - untraced.wall_s, untraced.wall_s), "ratio")
    return out


def run_traced(w, spans, name: str, inputs):
    """One untraced pass, then the same pass traced; per-layer metrics.

    Both passes probe the machine's speed only at their start and end, so
    that no probe time falls inside a span.
    """
    problems = []
    cpu0 = cpu_seconds()
    untraced = w.PASSES[name](inputs, interval_s=math.inf)
    cpu_s = cpu_seconds() - cpu0
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = w.PASSES[name](inputs, interval_s=math.inf)
    finally:
        tracer.uninstall()
    for result in (untraced, traced):
        problems += w.check(result, inputs)
    if not same_outputs(untraced, traced):
        problems.append("traced outputs differ from untraced outputs")
    return untraced, traced, tracer, cpu_s, problems


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(SETUP_REPEATS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size factor (self-test: 0.1)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or not 0 < args.scale <= 1:
        parser.error("need --seed >= 0, --seconds > 0 and 0 < --scale <= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # One OpenBLAS thread unless the caller chose otherwise, before numpy
    # loads. The matrices here are small: with the default of one thread
    # per CPU, a train pass on 2 vCPUs took as long or longer and used 1.5
    # CPU seconds per second, and its time then hung on the load on both
    # CPUs, which the probe on the main thread does not see. The outputs
    # are byte-identical either way.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import_program()
    sys.path.insert(0, str(HERE))
    import spans
    import speed
    import workloads as w

    env = environment()
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    name = args.workload
    cache = ROOT / ".perfbench_cache"
    base = ROOT / ".perfbench_work" / f"{name}-seed{args.seed}-{os.getpid()}"
    try:
        inputs, setup_wall_s, setup_train_s, setup_s = run_setups(
            w, spans, speed, args, base, cache)

        if args.trace:
            untraced, traced, tracer, cpu_s, problems = run_traced(
                w, spans, name, inputs)
            passes = [untraced, traced]
        else:
            passes, problems = run_timed(w, name, inputs, args.seconds)
        if not passes:
            print("\n".join(problems), file=sys.stderr)
            return 1
        attempted = sum(attempted_ops(p) for p in passes)
        failed = len(problems)
        if args.trace:
            metrics = per_layer(tracer, untraced, traced, cpu_s)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{name}-seed{args.seed}.jsonl"
            tracer.write(spans_path, {"workload": name, "seed": args.seed,
                                      "scale": args.scale,
                                      "pass_wall_s": traced.wall_s})
        else:
            metrics = end_to_end(w, passes, setup_s, failed, attempted)
            shown = named_metrics(w, name, passes, setup_wall_s,
                                  setup_train_s, metrics, failed, attempted)
            for key, m in shown.items():
                print(f"{key} {m['value']:.6g} {m['unit']}")
    finally:
        os.chdir(ROOT)
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass

    first = passes[0]
    env.update(process_cpu_s=cpu_seconds() - cpu0,
               process_wall_s=time.perf_counter() - wall0)
    report = {
        "workload": name, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_probe_ms": [p.probe_ms for p in passes],
        "setup_wall_s": setup_wall_s,
        "environment": env,
        "sha256": {"verdicts": w.sha256(first.output),
                   "reports": w.sha256(first.report_output),
                   "model": w.sha256(first.model_output)},
        "counts": {"files_scanned": first.scan_files,
                   "verdicts": len(first.verdicts),
                   "error_records": len(first.errors),
                   "out_of_subset_files": len(inputs.out_of_subset),
                   "flagged": sum(v.vulnerable for v in first.verdicts),
                   "localized": len(first.reports)},
        "problems": problems[:20],
    }
    if args.trace:
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
