"""Versioned on-disk model bundle (vocabulary, embeddings, both stages)."""

from __future__ import annotations

import base64
import functools
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, VulnMinerError
from .lexicon import TaintLexicon, lexicon_entries, lexicon_hash
from .linearize import EmbeddingTable, Vocabulary
from .nn import AttentionParams, GruParams, gru_input_table
from .training import TrainConfig

FORMAT_VERSION = 4


@dataclass
class FusionSettings:
    lam: float = 0.5
    tau: float = 0.5
    tau1: float = 0.2
    beta: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("lambda must be in [0, 1]")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError("tau must be in [0, 1]")
        if not 0.0 <= self.tau1 < 1.0:
            raise ConfigError("tau1 must be in [0, 1)")
        if self.beta < 0.0:
            raise ConfigError("beta must be >= 0")


@dataclass
class ModelBundle:
    vocab: Vocabulary
    embedding: EmbeddingTable
    stage1: GruParams
    stage2: AttentionParams
    fusion: FusionSettings
    stage1_config: TrainConfig
    stage2_config: TrainConfig
    curves: dict[str, list[float]]
    lexicon: list[str]              # the training lexicon's entries

    @functools.cached_property
    def stage1_table(self) -> np.ndarray:
        """Stage one's input for each vocabulary id (``gru_input_table``);
        made on first use, as ``stage1`` and ``embedding`` never change."""
        return gru_input_table(self.embedding.matrix, self.stage1)

    def check_lexicon(self, lex: TaintLexicon) -> None:
        """Refuse a lexicon other than the one the model was trained with."""
        if lexicon_entries(lex) != self.lexicon:
            raise ConfigError(
                "lexicon differs from the one the model was trained with; "
                "retrain with this lexicon or scan with the training one")

    def validate(self) -> None:
        self.embedding.validate(self.vocab)
        self.stage1.validate(self.embedding.dim, self.stage1_config.hidden)
        self.stage2.validate(self.embedding.dim)


def _array_out(arr: np.ndarray):
    raw = arr.astype("<f8", copy=False).tobytes()
    return {"shape": list(arr.shape), "f8": base64.b64encode(raw).decode("ascii")}


def _array_in(obj, what: str) -> np.ndarray:
    if not isinstance(obj, dict) or not {"f8", "shape"} <= obj.keys():
        raise ConfigError(f"{what}: not a shape/f8 array")
    raw = base64.b64decode(obj["f8"], validate=True)
    shape = tuple(obj["shape"])
    expected = int(np.prod(shape)) if shape else 1
    if len(raw) != 8 * expected:
        raise ConfigError(
            f"{what}: payload of {len(raw)} bytes != shape {shape} of float64")
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


def _params_out(params) -> dict:
    return {k: _array_out(v) for k, v in params.arrays().items()}


def _number(value, what: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what}: {value!r} is not a number")
    return value


def _section(doc: dict, name: str, build, convert=None):
    """``build`` of section ``name``, its values through ``convert`` if given;
    a missing section, key or value of the wrong type names the section."""
    if name not in doc:
        raise ConfigError(f"model file has no {name!r} section")
    try:
        if convert is None:
            return build(doc[name])
        return build(**{k: convert(v, k) for k, v in doc[name].items()})
    except (VulnMinerError, TypeError, ValueError, KeyError, IndexError,
            AttributeError) as exc:
        raise ConfigError(f"model section {name!r}: {exc}") from None


def _lexicon_in(section: dict) -> list[str]:
    entries = [str(e) for e in section["entries"]]
    if lexicon_hash(entries) != section["sha256"]:
        raise ConfigError("lexicon hash mismatch; model file corrupted")
    return entries


def save_model(bundle: ModelBundle, path: str | Path) -> None:
    """Write the bundle as compact, key-sorted JSON.

    No indent, so ``json`` encodes with its C encoder. Each array is the
    base64 of its little-endian float64 bytes beside its shape, so it loads
    back bit-exactly and no Python float is made per weight.
    """
    bundle.validate()
    doc = {
        "format_version": FORMAT_VERSION,
        "vocab": bundle.vocab.symbols,
        "vocab_hash": bundle.vocab.stable_hash(),
        "embedding": _array_out(bundle.embedding.matrix),
        "stage1": _params_out(bundle.stage1),
        "stage2": _params_out(bundle.stage2),
        "fusion": asdict(bundle.fusion),
        "stage1_config": asdict(bundle.stage1_config),
        "stage2_config": asdict(bundle.stage2_config),
        "curves": bundle.curves,
        "lexicon": {"entries": bundle.lexicon,
                    "sha256": lexicon_hash(bundle.lexicon)},
    }
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")),
        encoding="utf-8")


def load_model(path: str | Path) -> ModelBundle:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"model file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"model file {path} is not valid JSON: {exc}")
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported model format {version!r}")

    vocab = _section(doc, "vocab",
                     lambda v: Vocabulary(symbols=[str(s) for s in v]))
    if vocab.stable_hash() != _section(doc, "vocab_hash", str):
        raise ConfigError("vocabulary hash mismatch; model file corrupted")
    bundle = ModelBundle(
        vocab=vocab,
        embedding=_section(doc, "embedding", lambda v: EmbeddingTable(
            matrix=_array_in(v, "embedding"))),
        stage1=_section(doc, "stage1", GruParams, _array_in),
        stage2=_section(doc, "stage2", AttentionParams, _array_in),
        fusion=_section(doc, "fusion", FusionSettings, _number),
        stage1_config=_section(doc, "stage1_config", TrainConfig, _number),
        stage2_config=_section(doc, "stage2_config", TrainConfig, _number),
        curves=_section(doc, "curves", dict, lambda v, _: list(v)),
        lexicon=_section(doc, "lexicon", _lexicon_in),
    )
    bundle.validate()
    return bundle
