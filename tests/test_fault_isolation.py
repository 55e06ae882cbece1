"""One bad file of each kind, in each split, through every command.

``EXPECTED`` is the fault table of the README: for each run, its exit code
and what becomes of each bad file. A run never raises, and the output
names each file it touches with its kind (and, for ``bench``, the split).
"""

import json

import pytest

from vulnminer.cli import main
from vulnminer.corpus import CorpusManifest, ManifestEntry, \
    generate_synthetic_corpus

SPLITS = ("train", "val", "test")

# kind -> file bytes (None: a dangling link), and the text that names the
# kind in an error record, a skip line or an error exit
KINDS = {
    "decode": ('<?php system("café " . $_GET["c"]);'.encode("latin-1"),
               "not valid UTF-8"),
    "parse": (b"<?php $a = (;", "unexpected token ';'"),
    "binding": (b"<?php foreach ($_GET as $_POST) { echo 1; }",
                "cannot assign to superglobal $_POST"),
    "deep": (b"<?php $a = " + b"(" * 300 + b"1" + b")" * 300 + b";",
             "nesting too deep"),
    "chain": (b"<?php $a = $_GET['x']" + b" . 'y'" * 2999 + b"; system($a);",
              "nesting too deep"),
    "unread": (None, "cannot read"),
}

# Outcomes. Named in the output: "record" (a stdout error record),
# "skip" (a stderr `skipped` line, exit unaffected), "stop" (the run's
# one `error:` line). Not named: "kept" (analyzed like any other file) and
# "unread" (outside what the run reads).
REC, SKIP, STOP, KEPT, UNREAD = "record", "skip", "stop", "kept", "unread"


def _row(code, bad):
    """Every command keeps a long chain: each walks, copies and prints it
    in a loop."""
    return code, {**dict.fromkeys(("decode", "parse", "binding", "deep",
                                   "unread"), bad),
                  "chain": KEPT}


EXPECTED = {
    # (command, where the bad files are): (exit code, outcome per kind);
    # bench benches --split val for "val", the default test split otherwise
    ("scan", "dir"): _row(2, REC),
    ("localize", "dir"): _row(2, REC),
    ("localization-rate", "dir"): _row(0, SKIP),
    ("train", "train"): _row(0, SKIP),
    ("train", "val"): _row(0, SKIP),
    ("train", "test"): _row(0, UNREAD),
    ("bench", "train"): _row(0, UNREAD),
    ("bench", "val"): _row(2, STOP),
    ("bench", "test"): _row(2, STOP),
    ("bench-ablate", "train"): _row(0, SKIP),
    ("bench-ablate", "val"): _row(2, STOP),
    ("bench-ablate", "test"): _row(2, STOP),
    # augment reads the vulnerable files of every split and stops at one
    # it cannot read, parse or walk; it keeps a long chain
    **{("augment", kind): (2, {kind: STOP}) for kind in KINDS
       if kind != "chain"},
    ("augment", "chain"): (0, {"chain": KEPT}),
}


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A 40-file corpus, and each bad kind once per split and in ``dir``."""
    root = tmp_path_factory.mktemp("faults")
    generate_synthetic_corpus(root / "corpus", seed=7, size=40)
    for where in ("dir",) + SPLITS:
        (root / where).mkdir()
        for kind, (data, _) in KINDS.items():
            path = root / where / f"{kind}.php"
            if data is None:
                path.symlink_to(root / "missing.php")
            else:
                path.write_bytes(data)
    return root


def _manifest(tree, name, bad_entries) -> str:
    manifest = CorpusManifest.load(tree / "corpus" / "manifest.jsonl")
    manifest.entries = bad_entries + manifest.entries
    manifest.save(tree / name)
    return str(tree / name)


def _argv(command, where, tree, model_path):
    model = ("--model", model_path)
    if command in ("scan", "localize"):
        return [command, *model, str(tree / where)]
    if command == "localization-rate":
        reports = tree / "reports.jsonl"
        if not reports.exists():
            main(["localize", *model, "--out", str(reports),
                  str(tree / where)])
        return [command, str(reports)]
    if command == "augment":
        manifest = _manifest(tree, f"augment-{where}.jsonl", [ManifestEntry(
            path=str(tree / "dir" / f"{where}.php"), label=1)])
        return [command, manifest, "--ratio", "0.9",
                "--out-dir", str(tree / f"aug-{where}")]
    manifest = _manifest(tree, f"{where}.jsonl", [
        ManifestEntry(path=str(tree / where / f"{kind}.php"), label=1,
                      split=where) for kind in KINDS])
    if command == "train":
        return [command, manifest, "--model", str(tree / f"{where}.json")]
    argv = ["bench", manifest, *model, "--split",
            "val" if where == "val" else "test"]
    if command == "bench-ablate":
        argv += ["--ablate", "no-flow-edges,raw-code"]
    return argv


@pytest.mark.parametrize("command,where", sorted(EXPECTED))
def test_every_command_isolates_each_bad_file(command, where, tree,
                                              model_path, capsys):
    code = main(_argv(command, where, tree, model_path))
    out, err = capsys.readouterr()
    exit_code, outcomes = EXPECTED[command, where]
    assert code == exit_code, err
    assert "Traceback" not in out + err
    records = ([json.loads(line) for line in out.splitlines()]
               if command in ("scan", "localize") else [])
    errors = {r["path"]: r["error"] for r in records if "error" in r}
    split = f" (split: {where})" if command.startswith("bench") else ""
    bad_dir = tree / ("dir" if command == "augment" else where)
    for kind, outcome in outcomes.items():
        path, named = str(bad_dir / f"{kind}.php"), KINDS[kind][1]
        if outcome == REC:
            assert named in errors.pop(path)
        elif outcome == SKIP:
            skip = (f"skipped {path} (split: train): " if split
                    else f"skipped {path}: ")
            assert [line for line in err.splitlines()
                    if line.startswith(skip) and named in line], err
        elif outcome == STOP:
            assert out == ""
            assert err.startswith("error: ") and len(err.splitlines()) == 1
            assert path in err and named in err and split in err
        else:
            assert path not in err
    assert errors == {}
    if command in ("scan", "localize"):
        chain = str(bad_dir / "chain.php")
        kept = [r for r in records if chain in (r.get("path"),
                r.get("artifact", {}).get("path"))]
        assert len(kept) == 1 and "error" not in kept[0]


def test_bench_skips_the_train_files_it_cannot_use(tree, model_path, capsys):
    """The retrained rows are those of the manifest without the bad files."""
    rows = {}
    for name, kinds in (("with", ("decode", "parse", "deep", "unread")),
                        ("without", ())):
        manifest = _manifest(tree, f"train-{name}.jsonl", [
            ManifestEntry(path=str(tree / "train" / f"{kind}.php"), label=1)
            for kind in kinds])
        code = main(["bench", manifest, "--model", model_path,
                     "--ablate", "no-flow-edges,raw-code"])
        rows[name], err = capsys.readouterr()
        assert code == 0
        assert len(err.splitlines()) == len(kinds)
    assert rows["with"] == rows["without"]
    assert rows["with"].count("\n") == 5


def test_scan_skips_directories_named_like_php_files(tree, model_path,
                                                     capsys):
    scanned = tree / "vendor-tree"
    (scanned / "vendor.php").mkdir(parents=True)
    (scanned / "vendor.php" / "page.php").write_text("<?php echo 1;")
    code = main(["scan", "--model", model_path, str(scanned)])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert [json.loads(line)["path"] for line in out.splitlines()] == [
        str(scanned / "vendor.php" / "page.php")]
    assert main(["localize", "--model", model_path, str(scanned)]) == 0

