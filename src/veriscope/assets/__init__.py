"""Bundled configuration assets: label schemes, prompt templates, fixtures."""

from __future__ import annotations

import atexit
from contextlib import ExitStack
from importlib import resources
from pathlib import Path

from ..types import LabelScheme, parse_json

BUILTIN_SCHEMES = ("scifact", "averitec", "liar", "pubhealth")

# Keeps as_file() materializations alive for the process lifetime (matters
# only when the package is imported from a zip).
_resource_stack = ExitStack()
atexit.register(_resource_stack.close)


def _asset_root():
    return resources.files(__package__)


def load_prompt(name: str) -> str:
    """Return a bundled prompt template ('verdict' or 'negation')."""
    return (_asset_root() / "prompts" / f"{name}.txt").read_text(encoding="utf-8")


def load_scheme(name_or_path: str) -> LabelScheme:
    """Load a label scheme by builtin name or from a JSON file path."""
    if name_or_path in BUILTIN_SCHEMES:
        raw = (_asset_root() / "schemes" / f"{name_or_path}.json").read_text(encoding="utf-8")
    else:
        path = Path(name_or_path)
        if not path.exists():
            raise FileNotFoundError(
                f"unknown scheme {name_or_path!r}: not builtin {BUILTIN_SCHEMES} and no such file"
            )
        raw = path.read_text(encoding="utf-8")
    return LabelScheme.from_dict(parse_json(raw, dict, f"scheme {name_or_path!r}"))


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture file (claims/corpora)."""
    return Path(
        _resource_stack.enter_context(resources.as_file(_asset_root() / "fixtures" / name))
    )
