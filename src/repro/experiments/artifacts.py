"""Machine-readable artifacts: export experiment results as JSON.

``iguard-experiments`` prints the paper-style tables for humans; this
module serializes the same results for scripts (plotting, regression
tracking across versions of the reproduction).  Every experiment's
``run()`` output is converted to plain dict/list structures.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Any

from repro.experiments import ALL_EXPERIMENTS


def _plain(value: Any) -> Any:
    """Recursively convert experiment results to JSON-compatible data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(_plain(k)): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def export(name: str) -> Any:
    """Run one experiment and return its result as plain data."""
    module = ALL_EXPERIMENTS[name]
    return _plain(module.run())


def dump(path: str, names=None) -> dict:
    """Write selected experiments (default: all) to a JSON file."""
    names = list(names) if names else list(ALL_EXPERIMENTS)
    data = {name: export(name) for name in names}
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
    return data
