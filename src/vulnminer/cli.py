"""Command-line entry point: scan, localize, train, bench, augment."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .augment import augment_corpus, save_augment_manifest
from .bench import ABLATIONS, rows_to_csv, run_benchmark
from .cascade import run_pipeline
from .config import Config, load_config
from .corpus import CorpusManifest, generate_synthetic_corpus
from .detector import train_bundle
from .errors import VulnMinerError
from .lexicon import DEFAULT_LEXICON, load_lexicon
from .localize import default_templates, load_templates, localize, make_backend
from .metrics import localization_rate
from .model_store import load_model, save_model
from .sarif import verdicts_to_sarif
from .source import SourceUnit

EXIT_CLEAN, EXIT_FINDINGS, EXIT_ERROR = 0, 1, 2


def _collect_php_files(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.php")))
        elif path.exists():
            out.append(path)
        else:
            raise VulnMinerError(f"no such file or directory: {raw}")
    return sorted(set(out))


def _load_cfg(args) -> Config:
    overrides = {}
    for key in ("seed", "backend", "endpoint", "timeout", "alpha",
                "max_iterations", "lexicon"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "model", None):
        overrides["model"] = args.model
    return load_config(getattr(args, "config", None), overrides)


def _lexicon(cfg: Config):
    return load_lexicon(cfg.lexicon) if cfg.lexicon else DEFAULT_LEXICON


def _templates(cfg: Config):
    templates = default_templates()
    if cfg.templates:
        templates = templates + load_templates(cfg.templates)
    return templates


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
    lex = _lexicon(cfg)
    files = _collect_php_files(args.paths)
    units = [SourceUnit.from_file(p) for p in files]
    verdicts, errors = run_pipeline(units, bundle, lex=lex)

    if args.format == "sarif":
        _emit(json.dumps(verdicts_to_sarif(verdicts), indent=2,
                         sort_keys=True) + "\n", args.out)
    else:
        write_jsonl([v.record() for v in verdicts]
                    + [{"path": p, "error": e} for p, e in errors], args.out)
    return EXIT_FINDINGS if any(v.vulnerable for v in verdicts) else EXIT_CLEAN


def cmd_localize(args) -> int:
    cfg = _load_cfg(args)
    bundle = load_model(cfg.model)
    lex = _lexicon(cfg)
    templates = _templates(cfg)
    backend = make_backend(cfg.backend, endpoint=cfg.endpoint,
                           token=cfg.endpoint_token, timeout=cfg.timeout)
    files = _collect_php_files(args.paths)
    units = [SourceUnit.from_file(p) for p in files]
    verdicts, _ = run_pipeline(units, bundle, lex=lex)
    unit_of = {u.path: u for u in units}

    reports = []
    for verdict in verdicts:
        if not verdict.vulnerable:
            continue
        reports.append(localize(
            unit_of[verdict.file_id], bundle, templates, backend,
            alpha=cfg.alpha, max_iterations=cfg.max_iterations, lex=lex,
            hook=cfg.verify_hook or None))
    write_jsonl([r.to_dict() for r in reports], args.out)
    return EXIT_FINDINGS if reports else EXIT_CLEAN


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    manifest = CorpusManifest.load(args.manifest)
    bundle = train_bundle(manifest, seed=cfg.seed, profile=args.profile,
                          lex=_lexicon(cfg), tau=cfg.tau, tau1=cfg.tau1)
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
    rows = run_benchmark(manifest, bundle, ablations=ablations,
                         split=args.split)
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
    outcomes = []
    for line in Path(args.reports).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        outcomes.append((obj["vulnerability type"],
                         obj["artifact"]["status"] == "ok"))
    rate, breakdown = localization_rate(outcomes)
    print(json.dumps({"rate": rate, "breakdown": breakdown}, sort_keys=True))
    return EXIT_CLEAN


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vulnminer",
        description="Two-stage PHP vulnerability detection and localization")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_required=True):
        p.add_argument("--model", help="model file path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--lexicon", default=None,
                       help="taint lexicon file (kind,name,class lines)")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        del model_required

    scan = sub.add_parser("scan", help="run the detection cascade")
    scan.add_argument("paths", nargs="+")
    scan.add_argument("--format", choices=("jsonl", "sarif"), default="jsonl")
    common(scan)
    scan.set_defaults(func=cmd_scan)

    loc = sub.add_parser("localize", help="locate and rewrite confirmed findings")
    loc.add_argument("paths", nargs="+")
    loc.add_argument("--backend", choices=("deterministic", "remote", "refusal"),
                     default=None)
    loc.add_argument("--endpoint", default=None)
    loc.add_argument("--timeout", type=float, default=None)
    loc.add_argument("--alpha", type=float, default=None)
    loc.add_argument("--max-iterations", dest="max_iterations", type=int,
                     default=None)
    common(loc)
    loc.set_defaults(func=cmd_localize)

    train = sub.add_parser("train", help="train both stages and calibrate fusion")
    train.add_argument("manifest")
    train.add_argument("--profile", choices=("desk", "finetune"),
                       default="desk")
    common(train)
    train.set_defaults(func=cmd_train)

    bench = sub.add_parser("bench", help="metrics tables with ablations")
    bench.add_argument("manifest")
    bench.add_argument("--ablate", action="append", default=None,
                       help=f"comma-separated from {', '.join(ABLATIONS)}")
    bench.add_argument("--split", choices=("train", "val", "test", "all"),
                       default="test")
    bench.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    common(bench)
    bench.set_defaults(func=cmd_bench)

    aug = sub.add_parser("augment", help="semantics-preserving augmentation")
    aug.add_argument("manifest")
    aug.add_argument("--ratio", type=float, required=True)
    aug.add_argument("--out-dir", required=True)
    common(aug)
    aug.set_defaults(func=cmd_augment)

    gen = sub.add_parser("gen-corpus", help="seeded synthetic corpus")
    gen.add_argument("--out-dir", required=True)
    gen.add_argument("--size", type=int, default=200)
    gen.add_argument("--ratio", type=float, default=0.3)
    common(gen)
    gen.set_defaults(func=cmd_gen_corpus)

    rate = sub.add_parser("localization-rate",
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
    except VulnMinerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
