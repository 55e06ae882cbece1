"""Micro-templates: one guard-plan maker per sink class."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MicroTemplate:
    """Names the backend's plan maker for the sink classes it guards."""

    template_id: str
    sink_classes: tuple[str, ...]

    def applicable(self, sink_class: str) -> bool:
        return sink_class in self.sink_classes


def default_templates() -> list[MicroTemplate]:
    return [
        MicroTemplate("validation_wrapper", ("Command",)),
        MicroTemplate("prepared_statement", ("Sql",)),
        MicroTemplate("output_escape", ("Output",)),
        MicroTemplate("include_guard", ("Include",)),
        MicroTemplate("redirect_guard", ("Redirect",)),
    ]
