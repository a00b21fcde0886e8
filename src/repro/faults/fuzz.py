"""Differential fuzzer over the kernel DSL and the trace container.

Two generators, one oracle:

- **Program fuzzing**: seeded random kernel-DSL programs biased toward
  the synchronization constructs the Table 2 checks R1–R5 key on —
  scoped atomics (R1), warp barriers under ITS (R2), block barriers
  (R3), fences (R4), and plain conflicting accesses.  Each program is
  captured once and replayed through both ways iGUARD's front-end loop
  is fed — :func:`~repro.engine.replay.replay` (record slices) and
  columnar replay (chunks with vectorized granules) — plus a serial
  FastTrack leg that must neither crash nor hang.  Any crash, per-input
  wall-clock blowout, report divergence between the iGUARD legs, or
  quarantine-snapshot divergence is a failure.  A fourth leg replays the
  program through the **reference detector**
  (:mod:`repro.core.reference`), compared with the serial iGUARD leg one
  checked access at a time: a divergence that no iGUARD approximation
  explains is a ``reference`` failure.
- **Trace mutation**: byte-level corruption of ``.ctr`` and ``.ctr.gz``
  containers (flips, truncation, duplication, junk insertion).  The
  salvage contract is the oracle: strict loads and lazy streams may only
  succeed or raise :class:`~repro.errors.TraceCorruptionError`;
  ``salvage=True`` loads must never raise at all.  Anything else — a raw
  ``EOFError``, a ``zlib.error``, an unbounded allocation — is a failure.

Every failure is shrunk with :func:`repro.faults.ddmin.ddmin` (over DSL
statements for programs, 64-byte blocks for traces) and
deduplicated by crash signature (exception type @ deepest in-repo
frame).  ``--write-corpus`` files minimized repros into the triage
corpus (``tests/corpus/``); ``--replay-corpus`` re-runs every historical
entry and fails if any regresses — the CI regression gate.

Fixed seed + fixed input count ⇒ a fully deterministic campaign.
"""

from __future__ import annotations

import base64
import gzip
import json
import os
import time
import traceback
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.rng import SplitMix64
from repro.errors import (
    DeadlockError,
    OutOfMemoryError,
    TimeoutError_,
    TraceCorruptionError,
    UnsupportedFeatureError,
)
from repro.faults import quarantine
from repro.faults.ddmin import ddmin
from repro.gpu.instructions import (
    Scope,
    atomic_add,
    atomic_cas,
    atomic_exch,
    fence,
    load,
    store,
    syncthreads,
    syncwarp,
)
from repro.obs.log import configure_or_exit, get_logger
from repro.workloads.base import Workload

logger = get_logger("fuzz")

#: Per-input wall-clock budget: a generated program whose capture plus
#: all oracle legs exceed this is filed as a hang finding.
INPUT_BUDGET_S = 20.0

#: Statement count range for generated programs (small programs keep the
#: campaign throughput up; races need only a handful of statements).
MIN_STMTS, MAX_STMTS = 3, 12


# ---------------------------------------------------------------------------
# Program generation: statements are plain JSON-able lists so ddmin and
# the corpus can carry them.  [op, guard, array, index, extra]
# ---------------------------------------------------------------------------

_GUARDS: Tuple[Callable, ...] = (
    lambda ctx: True,
    lambda ctx: ctx.block_id == 0 and ctx.is_block_leader,
    lambda ctx: ctx.block_id == 1 and ctx.is_block_leader,
    lambda ctx: ctx.warp_in_block == 0 and ctx.lane == 0,
    lambda ctx: ctx.warp_in_block == 1 and ctx.lane == 0,
    lambda ctx: ctx.lane == 0,
    lambda ctx: ctx.lane == 1,
)

_SCOPES = (Scope.BLOCK, Scope.DEVICE)

#: Weighted op table — barriers, atomics and scope/fence choices are
#: over-represented because those are what R1–R5 discriminate on.
_OPS = (
    ["store"] * 5
    + ["load"] * 3
    + ["atomic"] * 5
    + ["cas"] * 1
    + ["exch"] * 1
    + ["fence"] * 2
    + ["syncthreads"] * 3
    + ["syncwarp"] * 2
)


def gen_program(rng: SplitMix64) -> List[list]:
    """One random DSL program as a JSON-able statement list."""
    count = MIN_STMTS + rng.randint(MAX_STMTS - MIN_STMTS + 1)
    statements = []
    for _ in range(count):
        op = rng.choice(_OPS)
        guard = rng.randint(len(_GUARDS))
        array = rng.randint(2)
        index = rng.randint(4)
        if op in ("store", "exch", "cas"):
            extra = rng.randint(64)
        elif op in ("atomic", "fence"):
            extra = rng.randint(len(_SCOPES))
        else:
            extra = 0
        statements.append([op, guard, array, index, extra])
    return statements


def build_kernel(statements: List[list]):
    """Compile a statement list into a generator kernel."""

    def _fuzz_kernel(ctx, a, b):
        arrays = (a, b)
        for op, guard, array, index, extra in statements:
            if op not in ("syncthreads", "syncwarp") and not _GUARDS[guard](ctx):
                continue
            if op == "store":
                yield store(arrays[array], index, extra)
            elif op == "load":
                yield load(arrays[array], index)
            elif op == "atomic":
                yield atomic_add(arrays[array], index, 1, scope=_SCOPES[extra])
            elif op == "cas":
                yield atomic_cas(arrays[array], index, 0, extra)
            elif op == "exch":
                yield atomic_exch(arrays[array], index, extra)
            elif op == "fence":
                yield fence(_SCOPES[extra])
            elif op == "syncthreads":
                yield syncthreads()
            elif op == "syncwarp":
                yield syncwarp()

    return _fuzz_kernel


def program_workload(statements: List[list], name: str = "fuzz-program") -> Workload:
    kernel = build_kernel(statements)

    def _run(device, seed: int) -> None:
        a = device.alloc("fz_a", 8)
        b = device.alloc("fz_b", 8)
        device.launch(
            kernel, grid_dim=2, block_dim=16, args=(a, b), seed=seed
        )

    return Workload(
        name=name, suite="fuzz", run=_run, seeds=(0,),
        description="generated fuzz program",
    )


# ---------------------------------------------------------------------------
# Crash signatures
# ---------------------------------------------------------------------------


def crash_signature(exc: BaseException) -> str:
    """``ExcType@file.py:function`` for the deepest in-repo frame.

    File basename + function (not line numbers) so signatures stay
    stable across unrelated edits, which is what keeps corpus dedup
    meaningful over time.
    """
    site = "?"
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        path = frame.filename.replace(os.sep, "/")
        if "/repro/" in path:
            site = f"{os.path.basename(frame.filename)}:{frame.name}"
            break
    return f"{type(exc).__name__}@{site}"


# ---------------------------------------------------------------------------
# The differential oracle over detection modes
# ---------------------------------------------------------------------------


def _leg(run: Callable[[], object]) -> Dict:
    """Run one oracle leg; normalize its observable surface."""
    quarantine.reset()
    status = "ok"
    tool = None
    try:
        tool = run()
    except TimeoutError_:
        status = "timeout"
    except UnsupportedFeatureError:
        status = "unsupported"
    except OutOfMemoryError:
        status = "oom"
    except DeadlockError:
        status = "deadlock"
    sites: Dict[str, str] = {}
    races = getattr(tool, "races", None)
    if races is not None:
        for ip, race_type in races.sites():
            sites[str(ip)] = str(race_type)
    return {
        "status": status,
        "sites": dict(sorted(sites.items())),
        "quarantine": quarantine.snapshot(),
    }


def differential_check(
    statements: List[list], labels: Optional[Counter] = None
) -> Optional[Dict]:
    """Capture one program, replay through every mode, compare reports.

    Returns None when all modes agree and nothing crashed, else a
    failure dict with ``kind``/``signature``/``detail``.  ``labels``, if
    given, counts the reference leg's labelled divergences.
    """
    import tempfile

    from repro.core.detector import IGuard
    from repro.core.reference import Reference, Verdicts
    from repro.core.sharding import replay_columnar_sharded
    from repro.baselines.fasttrack import FastTrack
    from repro.engine.coltrace import write_columnar
    from repro.engine.replay import capture_workload, replay

    started = time.perf_counter()
    workload = program_workload(statements)
    try:
        trace = capture_workload(workload, seeds=(0,))
        events = list(trace)

        def _replay_tool(factory):
            def _run():
                tool = factory()
                replay(events, tool)
                return tool

            return _run

        verdicts = Verdicts()

        def _probed():
            tool = IGuard()
            tool.probe = verdicts
            return tool

        legs = {"iguard-serial": _leg(_replay_tool(_probed))}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.ctr")
            with open(path, "wb") as handle:
                write_columnar(handle, events)
            legs["iguard-columnar"] = _leg(
                lambda: replay_columnar_sharded(path).tool
            )
        # Crash/hang leg: FastTrack flags atomic-atomic interleavings
        # iGUARD's Table 2 permits, so its report is not compared.
        legs["fasttrack-serial"] = _leg(_replay_tool(FastTrack))
        # Reference leg: the same stream under the reference detector,
        # compared with the serial iGUARD leg's verdicts per access.
        reference = Reference()
        reference.expected = iter(verdicts.outcomes)
        _leg(_replay_tool(lambda: reference))
        reference.finish()
        if labels is not None:
            labels.update(reference.labels)
    except Exception as exc:  # noqa: BLE001 — any escape is the finding
        return {
            "kind": "crash",
            "signature": crash_signature(exc),
            "detail": f"{type(exc).__name__}: {exc}"[:300],
        }
    elapsed = time.perf_counter() - started
    if elapsed > INPUT_BUDGET_S:
        return {
            "kind": "hang",
            "signature": f"hang@differential_check",
            "detail": f"input took {elapsed:.1f}s (> {INPUT_BUDGET_S:.0f}s)",
        }
    serial = legs["iguard-serial"]
    if legs["iguard-columnar"] != serial:
        return {
            "kind": "divergence",
            "signature": "divergence@iguard-columnar",
            "detail": (
                "iguard-columnar disagrees with iguard-serial: "
                f"{legs['iguard-columnar']} != {serial}"
            )[:500],
        }
    unlabelled = reference.unlabelled
    if unlabelled:
        # iGUARD and the reference disagree on an access in a way none of
        # iGUARD's approximations explains: one of the two is wrong.
        label, ip, theirs, ours = unlabelled[0]
        return {
            "kind": "reference",
            "signature": "reference@unlabelled-divergence",
            "detail": (
                f"{len(unlabelled)} unlabelled divergence(s); first at "
                f"{ip}: iGUARD {theirs}, reference {ours}"
            )[:500],
        }
    return None


# ---------------------------------------------------------------------------
# Trace mutation: the salvage-contract oracle
# ---------------------------------------------------------------------------

CODECS = ("ctr", "ctr.gz")


def base_trace_bytes(rng: SplitMix64) -> Dict[str, bytes]:
    """Deterministic base containers for mutation, one per codec."""
    import io

    from repro.engine.coltrace import write_columnar
    from repro.engine.replay import capture_workload

    statements = gen_program(rng)
    trace = capture_workload(program_workload(statements), seeds=(0,))
    buffer = io.BytesIO()
    write_columnar(buffer, list(trace))
    ctr = buffer.getvalue()
    return {"ctr": ctr, "ctr.gz": gzip.compress(ctr, mtime=0)}


def mutate_bytes(data: bytes, rng: SplitMix64) -> bytes:
    """One random corruption: flip, truncate, duplicate, junk, zero."""
    if not data:
        return data
    choice = rng.randint(5)
    offset = rng.randint(len(data))
    if choice == 0:  # flip one byte
        flipped = data[offset] ^ (1 << rng.randint(8))
        return data[:offset] + bytes([flipped]) + data[offset + 1 :]
    if choice == 1:  # truncate
        return data[:offset]
    if choice == 2:  # duplicate a slice
        end = min(len(data), offset + 1 + rng.randint(64))
        return data[:end] + data[offset:end] + data[end:]
    if choice == 3:  # insert junk
        junk = bytes(rng.randint(256) for _ in range(1 + rng.randint(16)))
        return data[:offset] + junk + data[offset:]
    # zero a slice
    end = min(len(data), offset + 1 + rng.randint(32))
    return data[:offset] + b"\x00" * (end - offset) + data[end:]


def check_trace_bytes(data: bytes, codec: str) -> Optional[Dict]:
    """Run one (possibly corrupt) container through the codec oracle.

    Strict loads and lazy chunk streams may succeed or raise
    TraceCorruptionError — nothing else.  Salvage loads must never
    raise.  Returns a failure dict or None.
    """
    import tempfile

    from repro.engine.coltrace import stream_events
    from repro.engine.trace import Trace

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"mut.{codec}")
        with open(path, "wb") as handle:
            handle.write(data)
        try:
            Trace.load(path)
        except TraceCorruptionError:
            pass
        except Exception as exc:  # noqa: BLE001
            return {
                "kind": "crash",
                "signature": crash_signature(exc),
                "detail": f"strict load: {type(exc).__name__}: {exc}"[:300],
            }
        try:
            Trace.load(path, salvage=True)
        except Exception as exc:  # noqa: BLE001
            return {
                "kind": "salvage-violation",
                "signature": crash_signature(exc),
                "detail": f"salvage load raised {type(exc).__name__}: {exc}"[:300],
            }
        try:
            for _ in stream_events(path):
                pass
        except TraceCorruptionError:
            pass
        except Exception as exc:  # noqa: BLE001
            return {
                "kind": "crash",
                "signature": crash_signature(exc),
                "detail": f"stream: {type(exc).__name__}: {exc}"[:300],
            }
    return None


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------


def minimize_program(statements: List[list], signature: str) -> List[list]:
    """ddmin a failing program down to the same-signature minimum."""

    def _still_fails(candidate: List[list]) -> bool:
        if not candidate:
            return False
        failure = differential_check(candidate)
        return failure is not None and failure["signature"] == signature

    return ddmin(statements, _still_fails, max_tests=256)


def minimize_trace(data: bytes, codec: str, signature: str) -> bytes:
    """ddmin a failing container over its 64-byte blocks."""
    parts = [data[i : i + 64] for i in range(0, len(data), 64)]

    def _still_fails(candidate: List[bytes]) -> bool:
        failure = check_trace_bytes(b"".join(candidate), codec)
        return failure is not None and failure["signature"] == signature

    return b"".join(ddmin(parts, _still_fails, max_tests=256))


# ---------------------------------------------------------------------------
# Triage corpus
# ---------------------------------------------------------------------------


def default_corpus_dir() -> str:
    """``tests/corpus`` relative to the repo checkout (CI convention)."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "tests", "corpus")


def _entry_name(entry: Dict) -> str:
    safe = "".join(
        ch if ch.isalnum() or ch in "-_." else "-"
        for ch in entry["signature"]
    )
    return f"{entry['kind']}-{safe}.json"


def write_corpus_entry(corpus_dir: str, entry: Dict) -> str:
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, _entry_name(entry))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_corpus(corpus_dir: str) -> List[Tuple[str, Dict]]:
    entries = []
    if not os.path.isdir(corpus_dir):
        return entries
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(corpus_dir, name)
        with open(path, "r", encoding="utf-8") as handle:
            entries.append((path, json.load(handle)))
    return entries


def replay_entry(entry: Dict) -> Optional[Dict]:
    """Re-run one corpus entry; None means it passes (bug stays fixed)."""
    if entry.get("input") == "program":
        return differential_check(entry["statements"])
    data = base64.b64decode(entry["data_b64"])
    return check_trace_bytes(data, entry["codec"])


# ---------------------------------------------------------------------------
# The campaign driver
# ---------------------------------------------------------------------------


def run_campaign(
    seed: int = 0,
    max_inputs: Optional[int] = None,
    budget_s: Optional[float] = None,
    minimize: bool = True,
    corpus_dir: Optional[str] = None,
    write_corpus: bool = False,
) -> Dict:
    """Drive the fuzzer; returns the campaign stats document.

    Every third input mutates a trace container, the rest are generated
    programs.  Failures are deduplicated by signature and (optionally)
    minimized; with ``write_corpus`` each minimized repro is filed in
    the triage corpus.
    """
    rng = SplitMix64(seed)
    bases = base_trace_bytes(SplitMix64(seed ^ 0xBA5E))
    started = time.perf_counter()
    stats = {
        "schema": 1,
        "generated_by": "repro.faults.fuzz",
        "seed": seed,
        "inputs": 0,
        "programs": 0,
        "trace_mutations": 0,
        "failures": [],
    }
    seen: Dict[str, Dict] = {}
    labels: Counter = Counter()
    index = 0
    while True:
        if max_inputs is not None and index >= max_inputs:
            break
        if budget_s is not None and time.perf_counter() - started >= budget_s:
            break
        if max_inputs is None and budget_s is None:
            raise ValueError("run_campaign needs max_inputs or budget_s")
        index += 1
        stats["inputs"] = index
        if index % 3 == 0:
            stats["trace_mutations"] += 1
            codec = CODECS[rng.randint(len(CODECS))]
            data = mutate_bytes(bases[codec], rng)
            failure = check_trace_bytes(data, codec)
            if failure is not None and failure["signature"] not in seen:
                if minimize:
                    data = minimize_trace(
                        data, codec, failure["signature"]
                    )
                entry = {
                    "input": "trace",
                    "kind": failure["kind"],
                    "signature": failure["signature"],
                    "detail": failure["detail"],
                    "codec": codec,
                    "data_b64": base64.b64encode(data).decode("ascii"),
                    "minimized": minimize,
                    "found_by_seed": seed,
                }
                seen[failure["signature"]] = entry
                logger.error("fuzz failure: %s", failure["signature"])
        else:
            stats["programs"] += 1
            statements = gen_program(rng)
            failure = differential_check(statements, labels)
            if failure is not None and failure["signature"] not in seen:
                if minimize:
                    statements = minimize_program(
                        statements, failure["signature"]
                    )
                entry = {
                    "input": "program",
                    "kind": failure["kind"],
                    "signature": failure["signature"],
                    "detail": failure["detail"],
                    "statements": statements,
                    "minimized": minimize,
                    "found_by_seed": seed,
                }
                seen[failure["signature"]] = entry
                logger.error("fuzz failure: %s", failure["signature"])
    elapsed = time.perf_counter() - started
    stats["elapsed_s"] = round(elapsed, 3)
    stats["inputs_per_sec"] = round(index / elapsed, 2) if elapsed else 0.0
    stats["failures"] = list(seen.values())
    stats["distinct_failures"] = len(seen)
    # Surfaced separately so CI can assert the reference leg stayed
    # green without parsing the failures list.
    stats["reference_failures"] = sum(
        1 for entry in seen.values() if entry["kind"] == "reference"
    )
    # The iGUARD approximations the reference leg saw at work.
    stats["reference_labels"] = dict(sorted(labels.items()))
    if write_corpus and seen:
        corpus = corpus_dir or default_corpus_dir()
        for entry in seen.values():
            path = write_corpus_entry(corpus, entry)
            logger.info("filed corpus entry %s", path)
    quarantine.reset()
    return stats


# ---------------------------------------------------------------------------
# CLI: python -m repro.faults.fuzz / iguard-experiments fuzz
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="iguard-experiments fuzz",
        description="Differential fuzz campaign over the DSL and traces.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--inputs", type=int, default=None, metavar="N",
        help="stop after N inputs (deterministic with --seed)",
    )
    parser.add_argument(
        "--budget", type=float, default=None, metavar="SEC",
        help="stop after SEC seconds of campaign wall clock",
    )
    parser.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="triage corpus directory (default: tests/corpus)",
    )
    parser.add_argument(
        "--write-corpus", action="store_true",
        help="file minimized failures into the corpus",
    )
    parser.add_argument(
        "--replay-corpus", action="store_true",
        help="replay every corpus entry instead of fuzzing; nonzero "
             "exit if any historical repro fails again",
    )
    parser.add_argument(
        "--no-minimize", action="store_true",
        help="skip ddmin on failures (faster triage-less campaign)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the campaign stats document to PATH",
    )
    args = parser.parse_args(argv)
    configure_or_exit()
    corpus_dir = args.corpus or default_corpus_dir()

    if args.replay_corpus:
        entries = load_corpus(corpus_dir)
        failures = []
        for path, entry in entries:
            result = replay_entry(entry)
            if result is not None:
                failures.append({"entry": path, "failure": result})
                logger.error(
                    "corpus regression: %s reproduces again (%s)",
                    path, result["signature"],
                )
        doc = {
            "corpus": corpus_dir,
            "entries": len(entries),
            "regressions": failures,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return 1 if failures else 0

    if args.inputs is None and args.budget is None:
        args.budget = 30.0
    stats = run_campaign(
        seed=args.seed,
        max_inputs=args.inputs,
        budget_s=args.budget,
        minimize=not args.no_minimize,
        corpus_dir=corpus_dir,
        write_corpus=args.write_corpus,
    )
    print(json.dumps(stats, indent=2, sort_keys=True))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if stats["failures"] else 0


def minimize_main(argv=None) -> int:
    """``iguard-experiments minimize <entry.json>``: re-shrink a repro."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="iguard-experiments minimize",
        description="Re-run ddmin on a corpus entry and rewrite it.",
    )
    parser.add_argument("entry", help="path to a corpus entry JSON file")
    args = parser.parse_args(argv)
    configure_or_exit()
    with open(args.entry, "r", encoding="utf-8") as handle:
        entry = json.load(handle)
    failure = replay_entry(entry)
    if failure is None:
        print(f"{args.entry}: no longer reproduces — nothing to minimize")
        return 0
    if entry.get("input") == "program":
        entry["statements"] = minimize_program(
            entry["statements"], failure["signature"]
        )
    else:
        data = base64.b64decode(entry["data_b64"])
        minimized = minimize_trace(
            data, entry["codec"], failure["signature"]
        )
        entry["data_b64"] = base64.b64encode(minimized).decode("ascii")
    entry["minimized"] = True
    with open(args.entry, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"rewrote {args.entry} (signature {failure['signature']})")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
