"""Corpus manifests and the seeded synthetic PHP corpus generator."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import FileAnalysis
from .errors import VulnMinerError
from .source import SourceUnit

SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: int
    vuln_type: str | None = None
    split: str = "train"


@dataclass
class CorpusManifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    def split(self, name: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == name]

    def positives(self) -> list[ManifestEntry]:
        return [e for e in self.entries if e.label == 1]

    def save(self, path: str | Path) -> None:
        """Relative entry paths are written relative to the manifest's
        directory, which is where ``load`` resolves them; absolute paths
        are written as they are."""
        base = Path(path).parent
        lines = [json.dumps({"path": _relative_to(e.path, base),
                             "label": e.label, "vuln_type": e.vuln_type,
                             "split": e.split}, sort_keys=True)
                 for e in self.entries]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CorpusManifest":
        """A line without a ``path``, a ``label`` of 0 or 1 and a known
        split raises ``VulnMinerError`` naming ``manifest:LINE``."""
        entries = []
        base = Path(path).parent
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                file_path, label = obj["path"], obj["label"]
                if label not in (0, 1):
                    raise ValueError(f"label {label!r}")
                if not Path(file_path).is_absolute():
                    file_path = str(base / file_path)
                entry = ManifestEntry(path=file_path, label=int(label),
                                      vuln_type=obj.get("vuln_type"),
                                      split=obj.get("split", "train"))
            except (ValueError, KeyError, TypeError) as exc:
                raise VulnMinerError(
                    f"{path}:{lineno}: not a manifest entry with a path and "
                    f"a label of 0 or 1") from exc
            if entry.split not in SPLITS:
                raise VulnMinerError(
                    f"{path}:{lineno}: unknown split {entry.split!r}")
            entries.append(entry)
        return cls(entries=entries)


def _relative_to(path: str, base: Path) -> str:
    if Path(path).is_absolute():
        return path
    return os.path.relpath(path, base)


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

_TYPES = ("Injection", "XSS", "URF", "FileInclusion", "SDE", "SM", "IDOR")

_USERS = ("user", "name", "account", "member", "login", "client")
_ITEMS = ("file", "path", "page", "doc", "report", "archive")
_TABLES = ("users", "accounts", "orders", "products", "sessions", "articles")
_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "sigma")


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]


def _distractors(rng: np.random.Generator) -> list[str]:
    lines = []
    count = int(rng.integers(0, 3))
    for _ in range(count):
        word = _pick(rng, _WORDS)
        roll = int(rng.integers(3))
        if roll == 0:
            lines.append(f"${word} = {int(rng.integers(1, 100))};")
        elif roll == 1:
            lines.append(f'echo "{word} ready";')
        else:
            lines.append(f'${word}_label = "{word}";')
    return lines


def _counting_loop(rng: np.random.Generator) -> list[str]:
    limit = int(rng.integers(2, 5))
    return [f"$n = 0;", f"while ($n < {limit}) {{", "    $n = $n + 1;", "}"]


def _gen_injection(rng, vuln: bool) -> list[str]:
    var = _pick(rng, _USERS)
    table = _pick(rng, _TABLES)
    shape = int(rng.integers(4))
    if shape == 0 and vuln:
        # query built at the call site, sink inside a helper function
        return [
            "function run_query($sql) {",
            "    $res = mysql_query($sql);",
            "    return $res;",
            "}",
            f"${var} = $_POST['{var}'];",
            f"$q = \"SELECT * FROM {table} WHERE owner='\" . ${var} . \"'\";",
            "$rows = run_query($q);",
        ]
    if vuln:
        fetch = [f"${var} = $_POST['{var}'];"]
    elif int(rng.integers(2)):
        fetch = [f"${var} = mysqli_real_escape_string($_POST['{var}']);"]
    else:
        fetch = [f"${var} = 'guest';"]
    if shape == 1:
        build = [f"$query = \"SELECT * FROM {table} WHERE name='${var}'\";"]
    else:
        build = [f"$query = \"SELECT * FROM {table} WHERE name='\" . ${var} . \"'\";"]
    return fetch + build + ["$result = mysql_query($query);"]


def _gen_command(rng, vuln: bool) -> list[str]:
    item = _pick(rng, _ITEMS)
    sink = _pick(rng, ("system", "exec", "shell_exec"))
    tool = _pick(rng, ("tar -czf", "zip -r", "cat"))
    shape = int(rng.integers(2))
    if shape == 0:
        # two-input archive build, full guard stack when benign
        tail = _pick(rng, ("", ".tar.gz"))
        build = f"\"{tool} \" . ${item} . \"{tail} \" . $dest"
        if vuln:
            fetch = [f"${item} = $_GET['{item}'];",
                     "$dest = $_GET['path'];",
                     f"$cmd = {build};"]
        else:
            guards = [f"${item} = sanitize_filename($_GET['{item}']);",
                      "$dest = sanitize_path($_GET['path']);"]
            if int(rng.integers(2)):
                guards.reverse()
            fetch = guards + [f"$cmd = escapeshellcmd({build});"]
        return fetch + [f"{sink}($cmd);"]
    if vuln:
        fetch = [f"${item} = $_GET['{item}'];"]
    elif int(rng.integers(2)):
        fetch = [f"${item} = escapeshellarg($_GET['{item}']);"]
    else:
        fetch = [f"${item} = 'backup.dat';"]
    return fetch + [
        f"$cmd = \"{tool} \" . ${item} . \".tar.gz\";",
        f"{sink}($cmd);",
    ]


def _gen_xss(rng, vuln: bool) -> list[str]:
    var = _pick(rng, _USERS)
    shape = int(rng.integers(3))
    if shape == 0:
        # sanitizer present but on a different value than the echoed one
        if vuln:
            return [
                f"$safe = htmlspecialchars($_GET['title']);",
                "echo $safe;",
                f"${var} = $_GET['{var}'];",
                f"echo \"Hello \" . ${var};",
            ]
        return [
            f"$safe = htmlspecialchars($_GET['title']);",
            "echo $safe;",
            f"${var} = htmlspecialchars($_GET['{var}']);",
            f"echo \"Hello \" . ${var};",
        ]
    if vuln:
        fetch = [f"${var} = $_GET['{var}'];"]
    elif int(rng.integers(2)):
        fetch = [f"${var} = htmlspecialchars($_GET['{var}']);"]
    else:
        fetch = [f"${var} = 'visitor';"]
    return fetch + [f"echo \"Welcome \" . ${var} . \"!\";"]


def _gen_urf(rng, vuln: bool) -> list[str]:
    if vuln:
        fetch = ["$next = $_GET['next'];"]
    elif int(rng.integers(2)):
        fetch = ["$next = sanitize_url($_GET['next']);"]
    else:
        fetch = ["$next = '/home';"]
    return fetch + ['header("Location: " . $next);']


def _gen_file_inclusion(rng, vuln: bool) -> list[str]:
    flavor = _pick(rng, ("include", "require_once"))
    if vuln:
        fetch = ["$page = $_GET['page'];"]
    elif int(rng.integers(2)):
        fetch = ["$page = basename($_GET['page']);"]
    else:
        fetch = ["$page = 'home';"]
    if int(rng.integers(2)):
        return fetch + [f"{flavor} \"pages/\" . $page . \".php\";"]
    return fetch + [f"{flavor} $page;"]


def _gen_sde(rng, vuln: bool) -> list[str]:
    shape = int(rng.integers(2))
    if shape == 0:
        if vuln:
            return ['echo "env: " . $_SERVER[\'SERVER_SOFTWARE\'];']
        return ['echo "env: production";']
    secret = _pick(rng, ("api_key", "auth_token", "app_secret"))
    if vuln:
        return [f"${secret} = \"sk_{_pick(rng, _WORDS)}_{int(rng.integers(1000, 9999))}\";",
                f"echo \"debug \" . ${secret};"]
    return [f"${secret} = getenv(\"APP_SECRET\");",
            f"echo \"debug mode off\";"]


def _gen_sm(rng, vuln: bool) -> list[str]:
    host = _pick(rng, ("localhost", "db.internal", "127.0.0.1"))
    if vuln:
        cred = [f"$db_password = \"{_pick(rng, _WORDS)}{int(rng.integers(100, 999))}\";"]
    else:
        cred = ["$db_password = getenv(\"DB_PASSWORD\");"]
    return cred + [f"$link = mysql_connect(\"{host}\", \"app\", $db_password);"]


def _gen_idor(rng, vuln: bool) -> list[str]:
    fetcher = _pick(rng, ("fetch_record", "get_record", "load_record"))
    if vuln:
        fetch = ["$id = $_GET['id'];"]
    else:
        fetch = ["$id = intval($_GET['id']);"]
    return fetch + [f"$row = {fetcher}($id);", 'echo "lookup done";']


def _gen_benign(rng) -> list[str]:
    """Plain static page: no sources, nothing tainted."""
    word = _pick(rng, _WORDS)
    title = _pick(rng, ("Welcome", "Report", "Archive", "Status"))
    lines = [f'$title = "{title} {word}";',
             'echo "<h1>";',
             "echo $title;",
             'echo "</h1>";']
    if int(rng.integers(2)):
        lines += [f"${word}_count = {int(rng.integers(1, 50))};",
                  f"echo ${word}_count;"]
    return lines


_GENERATORS = {
    "Injection": lambda rng, v: (_gen_injection if int(rng.integers(2)) else _gen_command)(rng, v),
    "XSS": _gen_xss,
    "URF": _gen_urf,
    "FileInclusion": _gen_file_inclusion,
    "SDE": _gen_sde,
    "SM": _gen_sm,
    "IDOR": _gen_idor,
}


def _render(rng: np.random.Generator, body: list[str]) -> str:
    lines = ["<?php"]
    lines += _distractors(rng)
    if int(rng.integers(4)) == 0:
        lines += _counting_loop(rng)
    lines += body
    lines += _distractors(rng)
    return "\n".join(lines) + "\n"


def generate_synthetic_corpus(out_dir: str | Path, seed: int, size: int = 200,
                              positive_ratio: float = 0.3) -> CorpusManifest:
    """Write a labeled corpus of pattern-instantiated PHP files.

    Every emitted label is re-derived with the taint oracle before the file
    is written; a mismatch is a generator bug and raises.
    """
    if size < 20:
        raise VulnMinerError("corpus size must be >= 20")
    if not 0.0 < positive_ratio < 1.0:
        raise VulnMinerError("positive ratio must be inside (0, 1)")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    types = list(_TYPES)
    # Uniform, yet passed to rng.choice as p: numpy draws other indices
    # without p, and the seeded corpora must not change.
    weights = np.full(len(types), 1.0 / len(types))

    n_pos = int(round(size * positive_ratio))
    n_neg = size - n_pos
    plan = [(True, types[int(rng.choice(len(types), p=weights))])
            for _ in range(n_pos)]
    plan += [(False, types[int(rng.choice(len(types), p=weights))])
             for _ in range(n_neg)]

    entries: list[ManifestEntry] = []
    for idx, (vuln, vuln_type) in enumerate(plan):
        for attempt in range(20):
            if not vuln and int(rng.integers(4)) == 0:
                body = _gen_benign(rng)
            else:
                body = _GENERATORS[vuln_type](rng, vuln)
            text = _render(rng, body)
            name = f"{'pos' if vuln else 'neg'}_{vuln_type.lower()}_{idx:04d}.php"
            unit = SourceUnit.from_text(name, text)
            oracle_vuln, oracle_types = FileAnalysis(unit).oracle_label
            if oracle_vuln == vuln:
                break
        else:
            raise VulnMinerError(
                f"generator could not realize {vuln_type} label={vuln}")
        (out / name).write_text(text, encoding="utf-8")
        entry_type = oracle_types[0] if vuln and oracle_types else (
            vuln_type if vuln else None)
        entries.append(ManifestEntry(path=str(out / name), label=int(vuln),
                                     vuln_type=entry_type))

    entries = _assign_splits(entries, rng)
    manifest = CorpusManifest(entries=entries)
    manifest.save(out / "manifest.jsonl")
    return manifest


def _assign_splits(entries: list[ManifestEntry], rng: np.random.Generator):
    order = rng.permutation(len(entries))
    n = len(entries)
    n_train = int(round(n * 0.7))
    n_val = int(round(n * 0.15))
    split_of = {}
    for rank, idx in enumerate(order):
        if rank < n_train:
            split_of[idx] = "train"
        elif rank < n_train + n_val:
            split_of[idx] = "val"
        else:
            split_of[idx] = "test"
    return [ManifestEntry(e.path, e.label, e.vuln_type, split_of[i])
            for i, e in enumerate(entries)]
