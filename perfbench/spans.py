"""In-memory span tracer around the public functions of each vulnminer layer.

The tracer changes no program code. ``install`` wraps each function named in
``SPANS`` and rebinds every reference to the original function object across
the loaded ``vulnminer.*`` modules, so calls made through ``from x import f``
names are caught as well; ``uninstall`` puts the originals back. Spans stay
in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span name -> (defining module, function name)
SPANS = {
    "frontend.tokenize": ("vulnminer.frontend.lexer", "tokenize"),
    "frontend.parse": ("vulnminer.frontend.parser", "parse"),
    "frontend.normalize": ("vulnminer.frontend.normalizer", "normalize"),
    "flows.augment_flows": ("vulnminer.flows", "augment_flows"),
    "flows.taint_trace": ("vulnminer.flows", "taint_trace"),
    "linearize.linearize": ("vulnminer.linearize", "linearize"),
    "linearize.embed_sequence": ("vulnminer.linearize", "embed_sequence"),
    "stage1.score_structural": ("vulnminer.stage1", "score_structural"),
    "nn.gru_forward": ("vulnminer.nn", "gru_forward"),
    "stage2.verify_semantic": ("vulnminer.stage2", "verify_semantic"),
    "nn.attention_forward": ("vulnminer.nn", "attention_forward"),
    "cascade.run_pipeline": ("vulnminer.cascade", "run_pipeline"),
    "cascade.calibrate_lambda": ("vulnminer.cascade", "calibrate_lambda"),
    "localize.localize": ("vulnminer.localize.engine", "localize"),
    "localize.build_ir": ("vulnminer.localize.ir", "build_ir"),
    "localize.extract_constraints": ("vulnminer.localize.constraints",
                                     "extract_constraints"),
    "localize.generate_candidates": ("vulnminer.localize.engine",
                                     "generate_candidates"),
    "localize.score_candidate": ("vulnminer.localize.scoring",
                                 "score_candidate"),
    "localize.select_best": ("vulnminer.localize.scoring", "select_best"),
    "localize.verify": ("vulnminer.localize.engine", "verify"),
    "training.train_structural": ("vulnminer.training", "train_structural"),
    "training.train_semantic": ("vulnminer.training", "train_semantic"),
    "nn.gru_backward": ("vulnminer.nn", "gru_backward"),
    "nn.attention_backward": ("vulnminer.nn", "attention_backward"),
    "model_store.load_model": ("vulnminer.model_store", "load_model"),
}

# Spans whose returned list length is kept as the span's item count.
_COUNT_RESULT = {"localize.generate_candidates"}


def _file_of(args) -> str | None:
    """The file a call works on: a SourceUnit's path, else a text's path."""
    if args:
        path = getattr(args[0], "path", None)
        if isinstance(path, str):
            return path
    return None


def rebind(targets: dict, wrap) -> list[tuple[object, str, object]]:
    """Replace each target function by ``wrap(name, function)`` everywhere.

    ``targets`` maps a name to (defining module, function name). Every
    attribute of a loaded ``vulnminer.*`` module bound to one of those
    function objects is rebound to its wrapper. Returns the patches that
    ``restore`` undoes.
    """
    wrappers = {}
    for name, (module_name, attr) in targets.items():
        original = getattr(sys.modules[module_name], attr)
        wrappers[id(original)] = (original, wrap(name, original))
    patches = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "vulnminer"
                                  or module_name.startswith("vulnminer.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patches.append((module, attr, value))
    return patches


def restore(patches: list[tuple[object, str, object]]) -> None:
    for module, attr, original in patches:
        setattr(module, attr, original)
    patches.clear()


class Tracer:
    """Records (name, start, end, parent index, file id, items) per call."""

    def __init__(self):
        self.records: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        records, stack = self.records, self._stack
        count_result = name in _COUNT_RESULT
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            file_id = _file_of(args)
            if file_id is None and parent >= 0:
                file_id = records[parent][4]
            index = len(records)
            record = [name, clock(), 0.0, parent, file_id, None]
            records.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if count_result:
                    record[5] = len(result)
                return result
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patches = rebind(SPANS, self._wrap)

    def uninstall(self) -> None:
        restore(self._patches)

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        out = [r[2] - r[1] for r in self.records]
        for r in self.records:
            if r[3] >= 0:
                out[r[3]] -= r[2] - r[1]
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """calls and self_ms per span name, every name in SPANS present."""
        totals = {name: {"calls": 0, "self_ms": 0.0} for name in SPANS}
        for record, self_s in zip(self.records, self.self_times()):
            entry = totals[record[0]]
            entry["calls"] += 1
            entry["self_ms"] += self_s * 1e3
        return totals

    def under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        count = 0
        for record in self.records:
            if record[0] != name:
                continue
            parent = record[3]
            while parent >= 0 and self.records[parent][0] != ancestor:
                parent = self.records[parent][3]
            count += parent >= 0
        return count

    def items(self, name: str) -> int:
        return sum(r[5] or 0 for r in self.records if r[0] == name)

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one line per span in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, file_id, items in self.records:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "file": file_id,
                                     "items": items}) + "\n")

