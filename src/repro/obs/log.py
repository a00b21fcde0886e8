"""The leveled logging facade: diagnostics on stderr, results on stdout.

Historically the experiments and harnesses printed everything — tables,
progress, warnings — straight to stdout, so a suite run's *product* (the
paper-style tables) and its *diagnostics* (progress, warnings, profile
dumps) were inseparable.  This module splits the two channels:

- :func:`output` is the **result channel**: plain ``print`` to stdout,
  used for the tables, figures and summaries an experiment exists to
  produce.  Redirecting stdout captures exactly the product.
- :func:`get_logger` returns a stdlib logger under the ``iguard`` root,
  whose handler writes *stderr*.  The level comes from ``IGUARD_LOG``
  (``debug`` | ``info`` | ``warn`` | ``error``; default ``info``) or the
  ``--log-level`` CLI flag via :func:`configure`.  Entry points call
  :func:`configure_or_exit`, which turns a bad ``IGUARD_LOG`` into exit
  code 2 with a one-line message.

The facade configures the ``iguard`` root logger only — never the global
root — so embedding applications keep full control of their own logging.
"""

from __future__ import annotations

import logging
import os
import sys
from typing import Optional

#: Root logger name; every facade logger is ``iguard`` or ``iguard.<sub>``.
ROOT = "iguard"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warn": logging.WARNING,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

_configured = False


def _resolve_level(level: Optional[str]) -> int:
    """Map a level name (or None → $IGUARD_LOG → 'info') to a logging level."""
    if level is None:
        name = (os.environ.get("IGUARD_LOG") or "info").strip().lower()
        source = "IGUARD_LOG"
    else:
        name, source = level.strip().lower(), "log level"
    try:
        return _LEVELS[name]
    except KeyError:
        raise ValueError(
            f"{source}={name!r} is not a log level; "
            f"use one of {', '.join(_LEVELS)}"
        ) from None


def configure(level: Optional[str] = None, stream=None) -> logging.Logger:
    """(Re)configure the ``iguard`` root logger and return it.

    Idempotent: repeated calls adjust the level and replace the facade's
    single handler rather than stacking handlers.  ``stream`` defaults to
    stderr so diagnostics never pollute the result channel.
    """
    global _configured
    root = logging.getLogger(ROOT)
    root.setLevel(_resolve_level(level))
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(
        logging.Formatter("[%(levelname)s] %(name)s: %(message)s")
    )
    for existing in list(root.handlers):
        root.removeHandler(existing)
    root.addHandler(handler)
    root.propagate = False
    _configured = True
    return root


def configure_or_exit(level: Optional[str] = None) -> logging.Logger:
    """:func:`configure` for command-line entry points.

    A level that names no level (a bad ``IGUARD_LOG``) ends the process
    with exit code 2 and a one-line message on stderr, not a traceback.
    """
    try:
        return configure(level)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``iguard`` root, auto-configuring on first use.

    Modules take their logger at import, so a bad ``IGUARD_LOG`` must
    not raise here: the facade falls back to ``info`` and the entry
    point's :func:`configure_or_exit` reports the bad value.
    """
    if not _configured:
        try:
            configure()
        except ValueError:
            configure("info")
    return logging.getLogger(f"{ROOT}.{name}" if name else ROOT)


def log_run_config(
    backend: str, logger: Optional[logging.Logger] = None
) -> None:
    """One-line INFO summary of a run's detector backend.

    Emitted once at startup by the entry points (runner, recall gate)
    so any log capture states how the run was configured.
    """
    log = logger if logger is not None else get_logger("config")
    log.info("run config: backend=%s", backend)


def output(*parts: object, sep: str = " ", end: str = "\n") -> None:
    """Write to the result channel (stdout).

    The facade's counterpart of a bare ``print``: experiment tables and
    summaries go through here, so they remain separable from diagnostics
    (which :func:`get_logger` sends to stderr).
    """
    print(*parts, sep=sep, end=end)
