"""Command-line entry point: scan, localize, train, bench, augment."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

# One BLAS thread unless set, before numpy loads: threads change trained bits.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .augment import augment_corpus, save_augment_manifest
from .bench import ABLATIONS, rows_to_csv, run_benchmark
from .cascade import run_pipeline
from .config import Config, load_config
from .corpus import CorpusManifest, generate_synthetic_corpus
from .detector import train_bundle
from .errors import VulnMinerError
from .lexicon import DEFAULT_LEXICON, load_lexicon
from .localize import default_templates, localize, make_backend
from .metrics import localization_rate
from .model_store import load_model, save_model
from .sarif import verdicts_to_sarif
from .source import read_unit

EXIT_CLEAN, EXIT_FINDINGS, EXIT_ERROR = 0, 1, 2


def _collect_php_files(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(p for p in path.rglob("*.php") if not p.is_dir())
        elif path.exists():
            out.append(path)
        else:
            raise VulnMinerError(f"no such file or directory: {raw}")
    return sorted(set(out))


def _read_units(paths: list[str]):
    """(units, errors); an unreadable file gives a (path, message) record."""
    errors: list[tuple[str, str]] = []
    units = [unit for path in _collect_php_files(paths)
             if (unit := read_unit(path, errors)) is not None]
    return units, errors


def _load_cfg(args) -> Config:
    """Config file, then environment, then each parsed option that names a
    ``Config`` field."""
    names = {f.name for f in fields(Config)}
    return load_config(args.config, {key: value for key, value
                                     in vars(args).items() if key in names})


def _lexicon(cfg: Config):
    return load_lexicon(cfg.lexicon) if cfg.lexicon else DEFAULT_LEXICON


def _exit_code(findings: bool, errors, allow_errors: bool) -> int:
    """2 when a file gave an error record (unless allowed), else 1 or 0."""
    if errors and not allow_errors:
        return EXIT_ERROR
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def write_jsonl(records, out: str | None = None) -> None:
    """One sort-keyed JSON object per line to ``out``, or to stdout.

    The stream ends in a newline only when it holds a record.
    """
    lines = [json.dumps(r, sort_keys=True) for r in records]
    _emit("\n".join(lines) + ("\n" if lines else ""), out)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    cfg = _load_cfg(args)
    bundle = load_model(cfg.model)
    units, unread = _read_units(args.paths)
    verdicts, errors = run_pipeline(units, bundle)
    errors = unread + errors

    if args.format == "sarif":
        _emit(json.dumps(verdicts_to_sarif(verdicts, errors), indent=2,
                         sort_keys=True) + "\n", args.out)
    else:
        write_jsonl([v.record() for v in verdicts]
                    + [{"path": p, "error": e} for p, e in errors], args.out)
    return _exit_code(any(v.vulnerable for v in verdicts), errors,
                      args.allow_errors)


def cmd_localize(args) -> int:
    cfg = _load_cfg(args)
    bundle = load_model(cfg.model)
    templates = default_templates()
    backend = make_backend(cfg.backend, endpoint=cfg.endpoint,
                           token=cfg.endpoint_token, timeout=cfg.timeout)
    units, unread = _read_units(args.paths)
    verdicts, errors = run_pipeline(units, bundle)
    errors = unread + errors
    unit_of = {u.path: u for u in units}

    reports = []
    for verdict in verdicts:
        if not verdict.vulnerable:
            continue
        reports.append(localize(
            unit_of[verdict.file_id], bundle, templates, backend,
            alpha=cfg.alpha, max_iterations=cfg.max_iterations,
            hook=cfg.verify_hook or None))
    write_jsonl([r.to_dict() for r in reports]
                + [{"path": p, "error": e} for p, e in errors], args.out)
    return _exit_code(bool(reports), errors, args.allow_errors)


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    manifest = CorpusManifest.load(args.manifest)
    skipped: list[tuple[str, str]] = []
    bundle = train_bundle(manifest, seed=cfg.seed, lex=_lexicon(cfg),
                          tau=cfg.tau, tau1=cfg.tau1, skipped=skipped)
    for path, message in skipped:
        print(f"skipped {path}: {message}", file=sys.stderr)
    save_model(bundle, cfg.model)
    for stage, curve in sorted(bundle.curves.items()):
        print(f"{stage}: epochs={len(curve)} first_loss={curve[0]:.4f} "
              f"final_loss={curve[-1]:.4f}")
    print(f"lambda={bundle.fusion.lam:g} tau={bundle.fusion.tau:g} "
          f"tau1={bundle.fusion.tau1:g}")
    print(f"model written to {cfg.model}")
    return EXIT_CLEAN


def cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    manifest = CorpusManifest.load(args.manifest)
    bundle = load_model(cfg.model)
    ablations = []
    for item in args.ablate or []:
        ablations.extend(part for part in item.split(",") if part)
    unknown = set(ablations) - set(ABLATIONS)
    if unknown:
        raise VulnMinerError(
            f"unknown ablation(s) {sorted(unknown)}; choose from {ABLATIONS}")
    skipped: list[tuple[str, str]] = []
    rows = run_benchmark(manifest, bundle, ablations=ablations,
                         split=args.split, skipped=skipped)
    for path, message in skipped:
        print(f"skipped {path} (split: train): {message}", file=sys.stderr)
    if args.format == "jsonl":
        write_jsonl([dict(variant=r.variant, **r.metrics.as_dict())
                     for r in rows], args.out)
    else:
        _emit(rows_to_csv(rows), args.out)
    return EXIT_CLEAN


def cmd_augment(args) -> int:
    cfg = _load_cfg(args)
    manifest = CorpusManifest.load(args.manifest)
    samples, reached = augment_corpus(manifest.entries, args.ratio,
                                      cfg.seed, args.out_dir,
                                      lex=_lexicon(cfg))
    save_augment_manifest(samples, Path(args.out_dir) / "augmented.jsonl")
    print(f"emitted {len(samples)} augmented samples to {args.out_dir}")
    if not reached:
        print("warning: requested ratio not reachable; emitted best effort",
              file=sys.stderr)
    return EXIT_CLEAN


def cmd_gen_corpus(args) -> int:
    cfg = _load_cfg(args)
    manifest = generate_synthetic_corpus(
        args.out_dir, seed=cfg.seed, size=args.size,
        positive_ratio=args.ratio)
    print(f"wrote {len(manifest.entries)} files and manifest to {args.out_dir}")
    return EXIT_CLEAN


def cmd_localization_rate(args) -> int:
    """Rate over the report stream; an error record is a file without a
    verdict, not a localization outcome, so it is skipped and named."""
    outcomes, skipped = [], []
    lines = Path(args.reports).read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if obj.keys() == {"path", "error"}:
                skipped.append(obj)
                continue
            outcomes.append((obj["vulnerability type"],
                             obj["artifact"]["status"] == "ok"))
        except (ValueError, AttributeError, TypeError, KeyError) as exc:
            raise VulnMinerError(
                f"{args.reports}:{lineno}: neither a localization report "
                f"nor an error record") from exc
    rate, breakdown = localization_rate(outcomes)
    for obj in skipped:
        print(f"skipped {obj['path']}: {obj['error']}", file=sys.stderr)
    print(json.dumps({"rate": rate, "breakdown": breakdown}, sort_keys=True))
    return EXIT_CLEAN


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vulnminer",
        description="Two-stage PHP vulnerability detection and localization")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations, so `--out` never passes for `--out-dir`
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    def options(p, *names):
        """The shared options a command reads; it accepts no others."""
        helps = {"model": "model file path", "seed": None,
                 "lexicon": "taint lexicon file (kind,name,class lines)",
                 "out": "output file (default stdout)"}
        for name in names:
            p.add_argument(f"--{name}", help=helps[name],
                           type=int if name == "seed" else None)

    def scanning(p):
        p.add_argument("paths", nargs="+")
        p.add_argument("--allow-errors", action="store_true",
                       help="exit 0 or 1 even when some file gave an error "
                            "record (default: exit 2)")

    scan = add("scan", help="run the detection cascade")
    scanning(scan)
    scan.add_argument("--format", choices=("jsonl", "sarif"), default="jsonl")
    options(scan, "model", "out")
    scan.set_defaults(func=cmd_scan)

    loc = add("localize", help="locate and rewrite confirmed findings")
    scanning(loc)
    loc.add_argument("--backend", choices=("deterministic", "remote", "refusal"),
                     default=None)
    loc.add_argument("--endpoint")
    loc.add_argument("--timeout", type=float)
    loc.add_argument("--alpha", type=float)
    loc.add_argument("--max-iterations", type=int)
    options(loc, "model", "out")
    loc.set_defaults(func=cmd_localize)

    train = add("train", help="train both stages and calibrate fusion")
    train.add_argument("manifest")
    options(train, "model", "seed", "lexicon")
    train.set_defaults(func=cmd_train)

    bench = add("bench", help="metrics tables with ablations")
    bench.add_argument("manifest")
    bench.add_argument("--ablate", action="append", default=None,
                       help=f"comma-separated from {', '.join(ABLATIONS)}")
    bench.add_argument("--split", choices=("train", "val", "test", "all"),
                       default="test")
    bench.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    options(bench, "model", "out")
    bench.set_defaults(func=cmd_bench)

    aug = add("augment", help="semantics-preserving augmentation")
    aug.add_argument("manifest")
    aug.add_argument("--ratio", type=float, required=True)
    aug.add_argument("--out-dir", required=True)
    options(aug, "seed", "lexicon")
    aug.set_defaults(func=cmd_augment)

    gen = add("gen-corpus", help="seeded synthetic corpus")
    gen.add_argument("--out-dir", required=True)
    gen.add_argument("--size", type=int, default=200)
    gen.add_argument("--ratio", type=float, default=0.3)
    options(gen, "seed")
    gen.set_defaults(func=cmd_gen_corpus)

    rate = add("localization-rate",
               help="rate and per-type breakdown from report stream")
    rate.add_argument("reports")
    rate.set_defaults(func=cmd_localization_rate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (VulnMinerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a fault of vulnminer itself, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
