"""Seeded corpora, set-up training and the timed passes of each workload.

Every pass drives vulnminer the way the CLI does: ``scan`` is one
``run_pipeline`` call over the whole corpus, ``localize`` is that scan plus one
``localize`` call per flagged file, ``train`` is ``train_bundle`` on the
manifest followed by a scan of the held-out test split. Program functions are
always called through their module attribute so the span tracer can see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vulnminer
from vulnminer import cascade, corpus, detector, model_store
from vulnminer.config import Config
from vulnminer.errors import ParseError
from vulnminer.flows import augment_flows, taint_trace
from vulnminer.frontend import parse_text
from vulnminer.lexicon import DEFAULT_LEXICON
from vulnminer.localize import engine, make_backend, default_templates
from vulnminer.source import SourceUnit

import spans
import speed

# (corpus size, positive ratio) at scale 1.
STANDARD = (200, 0.3)          # `gen-corpus` defaults; trains the model
# The standard corpus is the documented one (`gen-corpus --seed 7`) in every
# run. Models trained on corpora of other seeds differ in stage-one pass
# ratio, which moves scan speed by about 20% and held-out F1 between 0.75
# and 0.95, and that spread would hide every change the benchmark is for.
# The scanned corpora come from the run's seed.
STANDARD_SEED = 7
SCAN = (1960, 0.1)             # plus SCAN_OUT_OF_SUBSET wrapped files
SCAN_OUT_OF_SUBSET = 40        # 2% of the 2000 scanned files
LOCALIZE = (600, 0.7)

MODEL = "model.json"              # trained in set-up, loaded by each pass
TRAINED_MODEL = "model-trained.json"  # written by the train workload's pass
CFG = Config()                 # CLI defaults: deterministic backend, 1 worker
# Training makes one backward call per sample, about 17000 in the ~20 s
# train_bundle call, so the probe gets its chance after each of them.
PROBED_IN_TRAINING = {name: spans.SPANS[name]
                      for name in ("nn.gru_backward", "nn.attention_backward")}
LEX = DEFAULT_LEXICON          # what the CLI uses when no --lexicon is given


def derived_seed(seed: int, stream: int) -> int:
    """Independent corpus seed per stream, all fixed by the run's seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def scaled(n: int, scale: float, floor: int = 20) -> int:
    return max(floor, int(round(n * scale)))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _jsonl(records) -> str:
    lines = [json.dumps(r, sort_keys=True) for r in records]
    return "\n".join(lines) + ("\n" if lines else "")


def _fusion(bundle) -> cascade.FusionConfig:
    return cascade.FusionConfig(bundle.fusion.lam, bundle.fusion.tau,
                                bundle.fusion.tau1)


@dataclass
class Inputs:
    """What set-up wrote: files to scan relative to the work directory."""

    std_manifest: Path = Path("std/manifest.jsonl")
    paths: list[str] = field(default_factory=list)      # files to scan
    labels: dict[str, int] = field(default_factory=dict)
    out_of_subset: set[str] = field(default_factory=set)
    train_s: float | None = None


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def _wrap_in_class(text: str, k: int) -> str:
    """A file body inside a class: valid PHP, outside the parsed subset."""
    body = text.split("\n", 1)[1].rstrip("\n").split("\n")
    inner = "\n".join("        " + line for line in body)
    return (f"<?php\nclass Handler{k} {{\n    public function run() {{\n"
            f"{inner}\n    }}\n}}\n")


def _relative(path: str, work: Path) -> str:
    return Path(path).relative_to(work).as_posix()


def setup(workload: str, seed: int, scale: float, work: Path,
          cache: Path) -> Inputs:
    """Generate the workload's corpora; scan workloads also get the model.

    The scan workloads' model is trained with ``train_bundle`` on the
    standard corpus by the code under test. That takes about 20 s, and the
    model depends on the code only, not on the seed, so it is trained once
    per version of the code and kept in ``cache`` under ``model_key``; the
    set-up of later runs copies it. ``train_s`` is set when it trained.

    ``work`` is the absolute work directory and the current directory.
    Corpora are generated under its absolute path, because a manifest
    written under a relative directory does not load back; the files to
    scan are recorded relative to it, so outputs do not depend on where
    the work directory is.
    """
    inputs = Inputs(std_manifest=work / "std" / "manifest.jsonl")
    size, ratio = STANDARD
    std = corpus.generate_synthetic_corpus(
        work / "std", seed=STANDARD_SEED, size=scaled(size, scale),
        positive_ratio=ratio)
    if workload == "train":
        return inputs

    if workload == "scan-mostly-clean":
        size, ratio = SCAN
        manifest = corpus.generate_synthetic_corpus(
            work / "scan", seed=derived_seed(seed, 1), size=scaled(size, scale),
            positive_ratio=ratio)
        rng = np.random.default_rng(derived_seed(seed, 3))
        n_oos = max(1, int(round(SCAN_OUT_OF_SUBSET * scale)))
        picks = rng.choice(len(manifest.entries), size=n_oos, replace=False)
        for k, index in enumerate(sorted(int(i) for i in picks)):
            source = Path(manifest.entries[index].path)
            path = f"scan/oos_{k:04d}.php"
            Path(path).write_text(
                _wrap_in_class(source.read_text(encoding="utf-8"), k),
                encoding="utf-8")
            inputs.out_of_subset.add(path)
    else:
        size, ratio = LOCALIZE
        manifest = corpus.generate_synthetic_corpus(
            work / "loc", seed=derived_seed(seed, 2), size=scaled(size, scale),
            positive_ratio=ratio)
    inputs.labels = {_relative(e.path, work): e.label
                     for e in manifest.entries}
    inputs.paths = sorted(list(inputs.labels) + list(inputs.out_of_subset))

    cached = cache / f"model-{model_key(scale)}.json"
    if cached.is_file():
        shutil.copyfile(cached, MODEL)
        return inputs
    start = time.perf_counter()
    bundle = detector.train_bundle(std, seed=CFG.seed, lex=LEX, tau=CFG.tau,
                                   tau1=CFG.tau1)
    model_store.save_model(bundle, MODEL)
    inputs.train_s = time.perf_counter() - start
    cache.mkdir(parents=True, exist_ok=True)
    partial = cached.with_name(f"{cached.name}.{os.getpid()}.partial")
    shutil.copyfile(MODEL, partial)
    os.replace(partial, cached)
    return inputs


def model_key(scale: float) -> str:
    """Hash of everything the set-up model depends on.

    That is every file of the vulnminer package (the generator, the
    trainer and the code they call), the training settings, the corpus
    size and the Python and numpy versions.
    """
    package = Path(vulnminer.__file__).resolve().parent
    h = hashlib.sha256(json.dumps(
        [STANDARD, STANDARD_SEED, scaled(STANDARD[0], scale), CFG.seed,
         CFG.tau, CFG.tau1, platform.python_version(), np.__version__]
    ).encode("utf-8"))
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(package).as_posix().encode("utf-8"))
            h.update(b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """One pass of a workload's command: timings, outputs and their checks.

    Every time leaves out the probes that ran in it (see ``speed``).
    """

    wall_s: float = 0.0
    reference_s: float = 0.0             # wall_s in reference seconds
    probe_ms: float = 0.0                # typical probe time in the pass
    scan_s: float = 0.0
    scan_files: int = 0
    verdicts: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    output: str = ""                     # verdict JSONL, as `scan` writes it
    reports: list = field(default_factory=list)
    report_output: str = ""              # report JSONL, as `localize` writes it
    localize_ms: list[float] = field(default_factory=list)
    localize_s: float = 0.0
    train_s: float = 0.0
    model_output: str = ""
    labels: dict[str, int] = field(default_factory=dict)


def _start(interval_s: float) -> tuple[speed.Probe, speed.Stopwatch]:
    probe = speed.Probe(interval_s)
    probe.sample()
    return probe, speed.Stopwatch(probe)


def _stop(result: Pass, probe: speed.Probe, watch: speed.Stopwatch) -> Pass:
    result.wall_s = watch.seconds()
    probe.sample()
    result.reference_s = probe.reference_seconds(result.wall_s)
    result.probe_ms = probe.typical() * 1e3
    return result


def _scan(paths, model_path: str, result: Pass, probe: speed.Probe):
    """`vulnminer scan`: load the model, read the files, one pipeline call.

    The pipeline takes the units from a list that lets the probe run as
    each one is taken.
    """
    bundle = model_store.load_model(model_path)
    units = [SourceUnit.from_file(p) for p in paths]
    watch = speed.Stopwatch(probe)
    verdicts, errors = cascade.run_pipeline(probe.units(units), bundle,
                                            cfg=_fusion(bundle), lex=LEX)
    result.scan_s = watch.seconds()
    result.scan_files = len(units)
    result.verdicts, result.errors = verdicts, errors
    result.output = _jsonl([v.record() for v in verdicts]
                           + [{"path": p, "error": e} for p, e in errors])
    return bundle, units


def scan_pass(inputs: Inputs, interval_s: float = speed.INTERVAL_S) -> Pass:
    result = Pass(labels=inputs.labels)
    probe, watch = _start(interval_s)
    _scan(inputs.paths, MODEL, result, probe)
    return _stop(result, probe, watch)


def localize_pass(inputs: Inputs,
                  interval_s: float = speed.INTERVAL_S) -> Pass:
    """`vulnminer localize`: the scan, then one call per flagged file."""
    result = Pass(labels=inputs.labels)
    probe, watch = _start(interval_s)
    bundle, units = _scan(inputs.paths, MODEL, result, probe)
    unit_of = {u.path: u for u in units}
    templates = default_templates()
    backend = make_backend(CFG.backend, endpoint=CFG.endpoint,
                           token=CFG.endpoint_token, timeout=CFG.timeout)
    loc_watch = speed.Stopwatch(probe)
    for verdict in result.verdicts:
        if not verdict.vulnerable:
            continue
        t0 = time.perf_counter()
        result.reports.append(engine.localize(
            unit_of[verdict.file_id], bundle, templates, backend,
            alpha=CFG.alpha, max_iterations=CFG.max_iterations, lex=LEX,
            hook=CFG.verify_hook or None))
        result.localize_ms.append((time.perf_counter() - t0) * 1e3)
        probe.tick()
    result.localize_s = loc_watch.seconds()
    result.report_output = _jsonl([r.to_dict() for r in result.reports])
    return _stop(result, probe, watch)


def train_pass(inputs: Inputs, interval_s: float = speed.INTERVAL_S) -> Pass:
    """`vulnminer train` on the manifest, then `scan` of the test split."""
    work = inputs.std_manifest.parent.parent
    result = Pass()
    # A new file each pass: rewriting the last pass's model would make ext4
    # flush it at close, which would time the disk.
    Path(TRAINED_MODEL).unlink(missing_ok=True)
    probe, watch = _start(interval_s)
    manifest = corpus.CorpusManifest.load(inputs.std_manifest)
    hooks = probe.hook(PROBED_IN_TRAINING)
    try:
        bundle = detector.train_bundle(manifest, seed=CFG.seed, lex=LEX,
                                       tau=CFG.tau, tau1=CFG.tau1)
    finally:
        spans.restore(hooks)
    model_store.save_model(bundle, TRAINED_MODEL)
    result.train_s = watch.seconds()
    result.labels = {_relative(e.path, work): e.label
                     for e in manifest.split("test")}
    _scan(sorted(result.labels), TRAINED_MODEL, result, probe)
    _stop(result, probe, watch)
    result.model_output = Path(TRAINED_MODEL).read_text(encoding="utf-8")
    return result


PASSES = {"scan-mostly-clean": scan_pass,
          "localize-vuln-heavy": localize_pass,
          "train": train_pass}


# ---------------------------------------------------------------------------
# Output checks and quality
# ---------------------------------------------------------------------------

def _unsanitized(path: str, text: str) -> int:
    findings = taint_trace(augment_flows(parse_text(path, text)), LEX)
    return sum(1 for f in findings if not f.sanitized)


def check(result: Pass, inputs: Inputs) -> list[str]:
    """Every problem found in one pass's outputs, one string each.

    Each string is one failed operation: a file with no verdict and no error
    record, an error record for an in-subset file, a localization that ends
    in ``fail``, or an output that contradicts the taint oracle.
    """
    problems = []
    expected = set(result.labels) | inputs.out_of_subset
    seen: dict[str, int] = {}
    for path in [v.file_id for v in result.verdicts] + [p for p, _ in result.errors]:
        seen[path] = seen.get(path, 0) + 1
    for path in sorted(expected):
        if seen.get(path, 0) != 1:
            problems.append(f"{path}: {seen.get(path, 0)} verdict/error records")
    for path in sorted(set(seen) - expected):
        problems.append(f"{path}: record for a file that was not scanned")
    for path, error in result.errors:
        if path not in inputs.out_of_subset:
            problems.append(f"{path}: in-subset file errored: {error}")
    for verdict in result.verdicts:
        if verdict.file_id in inputs.out_of_subset:
            problems.append(f"{verdict.file_id}: out-of-subset file got a verdict")

    for report in result.reports:
        path = report.path
        if report.status == "fail":
            problems.append(f"{path}: localization failed")
        elif report.status == "false_positive" and result.labels.get(path) == 1:
            problems.append(f"{path}: oracle-positive file reported as false positive")
        elif report.status == "ok":
            try:
                fixed = _unsanitized(path + ".candidate", report.candidate_text)
            except ParseError as exc:
                problems.append(f"{path}: ok candidate does not parse: {exc}")
                continue
            original = Path(path).read_text(encoding="utf-8")
            if fixed >= _unsanitized(path, original):
                problems.append(f"{path}: ok candidate removes no unsanitized flow")
    return problems


def quality(result: Pass) -> dict[str, float]:
    """Verdict quality against the generator's oracle-checked labels."""
    tp = fp = fn = passed_pos = positives = 0
    for verdict in result.verdicts:
        label = result.labels.get(verdict.file_id)
        if label is None:
            continue
        if label == 1:
            positives += 1
            passed_pos += verdict.score2 is not None
            tp += verdict.vulnerable
            fn += not verdict.vulnerable
        else:
            fp += verdict.vulnerable
    return {
        "f1": 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0,
        "fnr": fn / positives if positives else 0.0,
        "recall": tp / positives if positives else 0.0,
        "stage1_recall": passed_pos / positives if positives else 0.0,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def median(values) -> float:
    return float(statistics.median(values))
