"""Columnar trace container: structure-of-arrays event storage (``.ctr``).

The one on-disk trace format.  It stores the typed event stream of a
:class:`~repro.engine.trace.Trace` as *columns*: one numpy array per
event field, grouped by event type, so loading a chunk costs O(fields)
numpy reads rather than a parse per event, and batch consumers (iGUARD's
columnar replay) can compute over whole columns vectorized before any
per-event Python object exists.

File layout (``.ctr``; ``.ctr.gz`` is the same stream gzipped)::

    header line   {"format": "iguard-ctr", "version": 1, "events": N,
                   "chunk_rows": C}\\n
    chunk*        chunk header line
                  {"rows": r, "counts": {"m": ..., "y": ..., ...},
                   "strings": [new string-pool entries]}\\n
                  npy block: et uint8[r]     (event-type code per row)
                  npy blocks: one per column of each present type group

Columns are written as standard ``numpy.save``-style blocks
(``np.lib.format.write_array``) back to back in one stream, so both the
plain and gzipped forms read sequentially with no seeking.  Strings (ips,
kernel/alloc names, JSON-degraded payload values) live in a file-level
string pool; each chunk header carries only the entries first seen in
that chunk, and columns reference pool indices — decoded events share one
interned string object per distinct ip, exactly like the slotted-event
pooling of the live pipeline.

Salvage semantics: a truncated or corrupt file raises
:class:`~repro.errors.TraceCorruptionError`, and ``salvage=True``
recovers the longest valid *chunk* prefix (columnar rows are interleaved
across blocks, so the chunk is the recovery granule).  ``block`` in the
error is the 1-based block ordinal (the file header is block 1) and
``last_good_offset`` is the uncompressed stream offset after the last
intact chunk.  Every decode path — whole-file reads, lazy streams and
the columnar replay — reports corruption through :meth:`Chunk.events`
the same way.
"""

from __future__ import annotations

import gzip
import json
import zlib
from dataclasses import asdict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.common.budget import (
    MAX_POOL_STRINGS,
    block_limit,
    line_limit,
    mem_budget,
    pool_byte_limit,
)
from repro.engine.trace import RunMarker
from repro.errors import ConfigError, TraceCorruptionError
from repro.gpu.arch import GPUConfig
from repro.gpu.events import (
    AccessKind,
    AllocEvent,
    KernelEndEvent,
    LaunchEvent,
    MemoryEvent,
    SyncEvent,
    SyncKind,
)
from repro.gpu.ids import ThreadLocation
from repro.gpu.instructions import AtomicOp, Scope
from repro.obs.metrics import HOT

FORMAT_NAME = "iguard-ctr"
#: Bumped whenever the column schema changes incompatibly.
FORMAT_VERSION = 1
#: Default rows per chunk: large enough to amortize the per-chunk numpy
#: block overhead, small enough that replay never holds more than one
#: chunk of materialized events.
CHUNK_ROWS = 8192

#: Row event-type codes (the ``et`` column).
ET_GPU, ET_RUN, ET_ALLOC, ET_LAUNCH, ET_MEM, ET_SYNC, ET_END = range(7)

_ACCESS_CODES = {AccessKind.LOAD: 0, AccessKind.STORE: 1, AccessKind.ATOMIC: 2}
_ACCESS_BY_CODE = (AccessKind.LOAD, AccessKind.STORE, AccessKind.ATOMIC)
_SYNC_CODES = {
    SyncKind.SYNCTHREADS: 0, SyncKind.SYNCWARP: 1, SyncKind.FENCE: 2,
}
_SYNC_BY_CODE = (SyncKind.SYNCTHREADS, SyncKind.SYNCWARP, SyncKind.FENCE)
#: Atomic ops by wire code; 0 means "no atomic op" in the column.
_OP_BY_CODE = (None,) + tuple(AtomicOp)
_OP_CODES = {op: i for i, op in enumerate(_OP_BY_CODE) if op is not None}
_SCOPE_BY_CODE = tuple(Scope(v) for v in sorted(int(s) for s in Scope))

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _opener(path):
    """The file opener for a trace path; other extensions are refused."""
    name = str(path)
    if name.endswith(".ctr.gz"):
        return gzip.open
    if name.endswith(".ctr"):
        return open
    raise ConfigError(
        f"{path}: unsupported trace extension; "
        f"trace files must end in .ctr or .ctr.gz"
    )


def _write_block(handle, array) -> None:
    np.lib.format.write_array(handle, array, version=(1, 0), allow_pickle=False)


def _read_block(handle):
    """Read one 1-D column block with its declared size pre-validated.

    ``np.lib.format.read_array`` allocates whatever the npy header
    declares *before* reading a byte, so a fuzzed header claiming a
    terabyte column would OOM the process.  Validating the header's
    shape and byte count against the decoder budget first turns that
    into an ordinary :class:`TraceCorruptionError` (via the caller's
    ``ValueError`` catch).  The returned array is a read-only view of
    the block bytes; decode never mutates columns.
    """
    try:
        magic = np.lib.format.read_magic(handle)
        if magic == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif magic == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            raise ValueError(f"unsupported npy block version {magic}")
    except (ValueError, EOFError, OSError):
        raise
    except Exception as exc:
        # numpy parses the header dict with a Python literal evaluator;
        # fuzzed header bytes surface as TokenError/SyntaxError/KeyError
        # and friends.  Normalize to the decoder's corruption type.
        raise ValueError(f"malformed npy block header: {exc!r}") from exc
    if dtype.hasobject:
        raise ValueError("object-dtype column block rejected")
    if fortran or not 1 <= len(shape) <= 2:
        raise ValueError(f"column block must be a 1/2-D C array, got {shape}")
    count = 1
    for dim in shape:
        if dim < 0:
            raise ValueError(f"column block declares shape {shape}")
        count *= int(dim)
    nbytes = count * dtype.itemsize
    cap = block_limit()
    if nbytes > cap:
        raise ValueError(
            f"column block declares {nbytes} bytes, over the "
            f"{cap}-byte decoder budget"
        )
    data = handle.read(nbytes)
    if len(data) != nbytes:
        raise EOFError(
            f"column block truncated: wanted {nbytes} bytes, "
            f"got {len(data)}"
        )
    return np.frombuffer(data, dtype=dtype).reshape(shape)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


class _PoolWriter:
    """File-level string pool: dedupes and tracks per-chunk fresh entries.

    The dedup memo is the only structure a pathological stream (every IP
    string unique) can grow without bound on the *write* side, so it is
    capped by ``IGUARD_MEM_BUDGET``: past the budget the oldest memo
    entries are FIFO-evicted.  Eviction only forgets that a string was
    pooled — a re-encountered string is simply appended to the file pool
    again under a fresh index, so the container stays bit-exact to
    decode and only its dedup ratio degrades.
    """

    def __init__(self, byte_budget: Optional[int] = None):
        self._index: Dict[str, int] = {}
        self._fresh: List[str] = []
        #: Next pool index — monotonically increasing, never reused, so
        #: writer indices always match the reader's ever-growing pool
        #: list even after memo evictions.
        self._next = 0
        self._bytes = 0
        self._budget = byte_budget
        self.evictions = 0

    def add(self, value: str) -> int:
        index = self._index.get(value)
        if index is None:
            index = self._next
            self._next += 1
            self._index[value] = index
            self._fresh.append(value)
            budget = self._budget
            if budget is not None:
                self._bytes += len(value)
                entries = self._index
                while self._bytes > budget and len(entries) > 1:
                    oldest = next(iter(entries))
                    if oldest == value:
                        break
                    del entries[oldest]
                    self._bytes -= len(oldest)
                    self.evictions += 1
                    if HOT.enabled:
                        HOT.pool_memo_evictions.inc()
        return index

    def take_fresh(self) -> List[str]:
        fresh, self._fresh = self._fresh, []
        return fresh


def _jsonable(value):
    """Event payload values carried losslessly, else their ``repr``.

    Workload kernels store Python ints (and occasionally strings); anything
    exotic is degraded to its ``repr`` — visible in the trace rather than
    silently dropped.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _encode_value(value, pool: _PoolWriter) -> Tuple[int, int]:
    """One optional event payload -> (tag, payload) column pair.

    Tag 0 = absent/None, 1 = int carried inline in the i64 payload,
    2 = payload is a pool index of the JSON-encoded value (bools, floats,
    strings, out-of-range ints, and ``repr``-degraded exotics).
    """
    if value is None:
        return 0, 0
    if type(value) is int and _I64_MIN <= value <= _I64_MAX:
        return 1, value
    return 2, pool.add(json.dumps(_jsonable(value)))


def _encode_mask(mask) -> int:
    bits = 0
    for lane in mask:
        if not 0 <= lane < 64:
            raise ValueError(
                f"active-mask lane {lane} does not fit the 64-bit "
                f"columnar mask (warp_size <= 64)"
            )
        bits |= 1 << lane
    return bits


def _where_row(where: ThreadLocation) -> Tuple[int, ...]:
    return (
        where.global_tid,
        where.block_id,
        where.tid_in_block,
        where.warp_id,
        where.lane,
        where.warp_in_block,
    )


def write_columnar(handle, events, chunk_rows: int = CHUNK_ROWS) -> None:
    """Write the typed event stream to an open binary ``handle``."""
    events = list(events)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "events": len(events),
        "chunk_rows": chunk_rows,
    }
    handle.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
    handle.write(b"\n")
    pool = _PoolWriter(byte_budget=mem_budget())
    for start in range(0, len(events), max(1, chunk_rows)):
        _write_chunk(handle, events[start:start + chunk_rows], pool)


def _write_chunk(handle, events, pool: _PoolWriter) -> None:
    et: List[int] = []
    mem: List[tuple] = []
    syn: List[tuple] = []
    lau: List[tuple] = []
    alo: List[tuple] = []
    end: List[tuple] = []
    run: List[int] = []
    gpu: List[int] = []
    for event in events:
        kind = type(event)
        if kind is MemoryEvent:
            et.append(ET_MEM)
            vs = _encode_value(event.value_stored, pool)
            vl = _encode_value(event.value_loaded, pool)
            cmp_ = _encode_value(event.compare, pool)
            mem.append((
                _ACCESS_CODES[event.kind],
                event.address,
                _where_row(event.where),
                pool.add(event.ip),
                _encode_mask(event.active_mask),
                int(event.scope),
                _OP_CODES[event.atomic_op] if event.atomic_op is not None else 0,
                event.batch,
                (vs[0], vl[0], cmp_[0]),
                (vs[1], vl[1], cmp_[1]),
            ))
        elif kind is SyncEvent:
            et.append(ET_SYNC)
            syn.append((
                _SYNC_CODES[event.kind],
                _where_row(event.where),
                pool.add(event.ip),
                _encode_mask(event.active_mask),
                int(event.scope),
                event.batch,
            ))
        elif kind is LaunchEvent:
            et.append(ET_LAUNCH)
            lau.append((
                pool.add(event.kernel_name),
                (
                    event.grid_dim, event.block_dim, event.warp_size,
                    event.warps_per_block, event.num_threads, event.seed,
                    event.static_instruction_count, event.parallelism,
                ),
            ))
        elif kind is AllocEvent:
            et.append(ET_ALLOC)
            alo.append((pool.add(event.name), event.base, event.num_words))
        elif kind is KernelEndEvent:
            et.append(ET_END)
            end.append((
                pool.add(event.kernel_name),
                int(event.timed_out),
                event.native_parallel,
                event.native_serial,
                event.batches,
                event.instructions,
            ))
        elif kind is GPUConfig:
            et.append(ET_GPU)
            gpu.append(pool.add(json.dumps(asdict(event), sort_keys=True)))
        elif kind is RunMarker:
            et.append(ET_RUN)
            run.append(event.seed)
        else:
            raise TypeError(f"cannot encode trace event {event!r}")

    counts = {}
    for key, group in (
        ("m", mem), ("y", syn), ("l", lau), ("a", alo),
        ("e", end), ("r", run), ("g", gpu),
    ):
        if group:
            counts[key] = len(group)
    chunk_header = {
        "rows": len(et),
        "counts": counts,
        "strings": pool.take_fresh(),
    }
    handle.write(
        json.dumps(chunk_header, separators=(",", ":")).encode("utf-8")
    )
    handle.write(b"\n")
    _write_block(handle, np.asarray(et, dtype=np.uint8))
    if mem:
        cols = list(zip(*mem))
        _write_block(handle, np.asarray(cols[0], dtype=np.uint8))   # kind
        _write_block(handle, np.asarray(cols[1], dtype=np.uint64))  # addr
        _write_block(handle, np.asarray(cols[2], dtype=np.int64))   # where
        _write_block(handle, np.asarray(cols[3], dtype=np.uint32))  # ip
        _write_block(handle, np.asarray(cols[4], dtype=np.uint64))  # mask
        _write_block(handle, np.asarray(cols[5], dtype=np.uint8))   # scope
        _write_block(handle, np.asarray(cols[6], dtype=np.uint8))   # op
        _write_block(handle, np.asarray(cols[7], dtype=np.int64))   # batch
        _write_block(handle, np.asarray(cols[8], dtype=np.uint8))   # value tags
        _write_block(handle, np.asarray(cols[9], dtype=np.int64))   # payloads
    if syn:
        cols = list(zip(*syn))
        _write_block(handle, np.asarray(cols[0], dtype=np.uint8))
        _write_block(handle, np.asarray(cols[1], dtype=np.int64))
        _write_block(handle, np.asarray(cols[2], dtype=np.uint32))
        _write_block(handle, np.asarray(cols[3], dtype=np.uint64))
        _write_block(handle, np.asarray(cols[4], dtype=np.uint8))
        _write_block(handle, np.asarray(cols[5], dtype=np.int64))
    if lau:
        cols = list(zip(*lau))
        _write_block(handle, np.asarray(cols[0], dtype=np.uint32))
        _write_block(handle, np.asarray(cols[1], dtype=np.int64))
    if alo:
        cols = list(zip(*alo))
        _write_block(handle, np.asarray(cols[0], dtype=np.uint32))
        _write_block(handle, np.asarray(cols[1], dtype=np.uint64))
        _write_block(handle, np.asarray(cols[2], dtype=np.int64))
    if end:
        cols = list(zip(*end))
        _write_block(handle, np.asarray(cols[0], dtype=np.uint32))
        _write_block(handle, np.asarray(cols[1], dtype=np.uint8))
        _write_block(handle, np.asarray(cols[2], dtype=np.float64))
        _write_block(handle, np.asarray(cols[3], dtype=np.float64))
        _write_block(handle, np.asarray(cols[4], dtype=np.int64))
        _write_block(handle, np.asarray(cols[5], dtype=np.int64))
    if gpu:
        _write_block(handle, np.asarray(gpu, dtype=np.uint32))
    if run:
        _write_block(handle, np.asarray(run, dtype=np.int64))


def save_columnar(events, path, chunk_rows: int = CHUNK_ROWS) -> None:
    """Write ``events`` to a ``.ctr`` / ``.ctr.gz`` file."""
    with _opener(path)(path, "wb") as handle:
        write_columnar(handle, events, chunk_rows=chunk_rows)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


class Chunk:
    """One decoded chunk: raw column arrays plus lazy row materialization.

    Batch consumers read the raw columns (``mem_routes`` shifts the whole
    address column vectorized); :meth:`events` materializes the slotted
    event objects row by row, memoizing :class:`ThreadLocation` and
    active-mask objects across the whole read session so repeated
    identities share one object, like the live pipeline's pooling.
    """

    __slots__ = (
        "path", "ordinal", "rows", "start_offset", "et", "groups",
        "_pool", "_memos",
    )

    def __init__(
        self, path, ordinal, rows, start_offset, et, groups, pool, memos
    ):
        self.path = path
        self.ordinal = ordinal
        self.rows = rows
        self.start_offset = start_offset
        self.et = et
        self.groups = groups
        self._pool = pool
        self._memos = memos

    def mem_routes(self, granularity_bytes: int) -> List[int]:
        """Vectorized metadata granule of every memory row, in row order.

        ``address >> log2(granularity)`` over the whole address column,
        the same index :meth:`~repro.core.metadata.MetadataTable.granule_of`
        computes one address at a time.
        """
        group = self.groups.get("m")
        if group is None:
            return []
        shift = np.uint64(granularity_bytes.bit_length() - 1)
        return (group[1] >> shift).tolist()

    def events(self) -> list:
        """Materialize the chunk's rows as typed event objects.

        Column values the header checks cannot vouch for (an out-of-range
        code or pool index, a value payload or recorded device config
        that does not decode) raise :class:`TraceCorruptionError` naming
        this chunk's block ordinal and start offset.
        """
        try:
            return self._events()
        except (
            IndexError, KeyError, ValueError, TypeError, RecursionError,
            ConfigError,
        ) as exc:
            raise TraceCorruptionError(
                self.path, self.ordinal, self.start_offset,
                f"{type(exc).__name__}: {exc}",
            ) from exc

    def _events(self) -> list:
        pool = self._pool
        loc_memo, mask_memo, value_memo = self._memos
        out: List[object] = []
        groups = self.groups

        mem = groups.get("m")
        if mem is not None:
            m_kind = mem[0].tolist()
            m_addr = mem[1].tolist()
            m_where = mem[2].tolist()
            m_ip = mem[3].tolist()
            m_mask = mem[4].tolist()
            m_scope = mem[5].tolist()
            m_op = mem[6].tolist()
            m_batch = mem[7].tolist()
            m_vtag = mem[8].tolist()
            m_vpay = mem[9].tolist()
        syn = groups.get("y")
        if syn is not None:
            y_kind = syn[0].tolist()
            y_where = syn[1].tolist()
            y_ip = syn[2].tolist()
            y_mask = syn[3].tolist()
            y_scope = syn[4].tolist()
            y_batch = syn[5].tolist()
        lau = groups.get("l")
        if lau is not None:
            l_name = lau[0].tolist()
            l_num = lau[1].tolist()
        alo = groups.get("a")
        if alo is not None:
            a_name = alo[0].tolist()
            a_base = alo[1].tolist()
            a_words = alo[2].tolist()
        end = groups.get("e")
        if end is not None:
            e_name = end[0].tolist()
            e_timed = end[1].tolist()
            e_np = end[2].tolist()
            e_ns = end[3].tolist()
            e_batches = end[4].tolist()
            e_instr = end[5].tolist()
        run = groups.get("r")
        r_seed = run.tolist() if run is not None else None
        gpu = groups.get("g")
        g_json = gpu.tolist() if gpu is not None else None

        append = out.append
        i_m = i_y = i_l = i_a = i_e = i_r = i_g = 0
        for code in self.et.tolist():
            if code == ET_MEM:
                w = tuple(m_where[i_m])
                where = loc_memo.get(w)
                if where is None:
                    where = ThreadLocation(*w)
                    loc_memo[w] = where
                bits = m_mask[i_m]
                mask = mask_memo.get(bits)
                if mask is None:
                    mask = frozenset(
                        lane for lane in range(bits.bit_length())
                        if bits >> lane & 1
                    )
                    mask_memo[bits] = mask
                append(MemoryEvent(
                    _ACCESS_BY_CODE[m_kind[i_m]],
                    m_addr[i_m],
                    where,
                    pool[m_ip[i_m]],
                    mask,
                    _SCOPE_BY_CODE[m_scope[i_m]],
                    _OP_BY_CODE[m_op[i_m]],
                    _decode_value(
                        m_vtag[i_m][0], m_vpay[i_m][0], pool, value_memo
                    ),
                    _decode_value(
                        m_vtag[i_m][1], m_vpay[i_m][1], pool, value_memo
                    ),
                    _decode_value(
                        m_vtag[i_m][2], m_vpay[i_m][2], pool, value_memo
                    ),
                    m_batch[i_m],
                ))
                i_m += 1
            elif code == ET_SYNC:
                w = tuple(y_where[i_y])
                where = loc_memo.get(w)
                if where is None:
                    where = ThreadLocation(*w)
                    loc_memo[w] = where
                bits = y_mask[i_y]
                mask = mask_memo.get(bits)
                if mask is None:
                    mask = frozenset(
                        lane for lane in range(bits.bit_length())
                        if bits >> lane & 1
                    )
                    mask_memo[bits] = mask
                append(SyncEvent(
                    _SYNC_BY_CODE[y_kind[i_y]],
                    where,
                    pool[y_ip[i_y]],
                    mask,
                    _SCOPE_BY_CODE[y_scope[i_y]],
                    y_batch[i_y],
                ))
                i_y += 1
            elif code == ET_LAUNCH:
                num = l_num[i_l]
                append(LaunchEvent(
                    kernel_name=pool[l_name[i_l]],
                    grid_dim=num[0],
                    block_dim=num[1],
                    warp_size=num[2],
                    warps_per_block=num[3],
                    num_threads=num[4],
                    seed=num[5],
                    static_instruction_count=num[6],
                    parallelism=num[7],
                ))
                i_l += 1
            elif code == ET_END:
                append(KernelEndEvent(
                    kernel_name=pool[e_name[i_e]],
                    timed_out=bool(e_timed[i_e]),
                    native_parallel=e_np[i_e],
                    native_serial=e_ns[i_e],
                    batches=e_batches[i_e],
                    instructions=e_instr[i_e],
                ))
                i_e += 1
            elif code == ET_ALLOC:
                append(AllocEvent(
                    name=pool[a_name[i_a]],
                    base=a_base[i_a],
                    num_words=a_words[i_a],
                ))
                i_a += 1
            elif code == ET_RUN:
                append(RunMarker(seed=r_seed[i_r]))
                i_r += 1
            elif code == ET_GPU:
                append(GPUConfig(**json.loads(pool[g_json[i_g]])))
                i_g += 1
            else:
                raise ValueError(f"unknown event-type code {code}")
        return out


def _decode_value(tag: int, payload: int, pool, memo):
    if tag == 0:
        return None
    if tag == 1:
        return payload
    if tag == 2:
        if payload in memo:
            return memo[payload]
        value = json.loads(pool[payload])
        memo[payload] = value
        return value
    raise ValueError(f"unknown value tag {tag}")


#: Column block counts per type group, in on-disk order.
_GROUP_BLOCKS = (("m", 10), ("y", 6), ("l", 2), ("a", 3), ("e", 6), ("g", 1))


def iter_chunks(source, path: Optional[str] = None) -> Iterator[Chunk]:
    """Yield :class:`Chunk` objects from a path or open binary handle.

    Raises :class:`TraceCorruptionError` on a truncated or corrupt file
    (``events_recovered`` counts the rows of chunks already yielded).
    Callers wanting salvage catch it after consuming the yielded prefix.
    """
    if hasattr(source, "read"):
        yield from _iter_chunks_handle(source, path or "<handle>")
    else:
        with _opener(source)(source, "rb") as handle:
            yield from _iter_chunks_handle(handle, str(source))


def _iter_chunks_handle(handle, path: str) -> Iterator[Chunk]:
    pool: List[str] = []
    pool_bytes = 0
    memos = ({}, {}, {})  # locations, masks, decoded JSON values
    recovered = 0
    block = 1  # the file header is block 1; chunks follow
    last_good = 0
    line_cap = line_limit()
    try:
        header_line = handle.readline(line_cap)
        header = json.loads(header_line)
        if header.get("format") != FORMAT_NAME:
            raise ValueError(f"not a {FORMAT_NAME} file")
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported columnar format version {header.get('version')}"
            )
        declared = int(header["events"])
        last_good = handle.tell()
        while True:
            line = handle.readline(line_cap)
            if not line:
                break
            block += 1
            chunk_header = json.loads(line)
            rows = int(chunk_header["rows"])
            counts = chunk_header["counts"]
            strings = chunk_header.get("strings", ())
            pool_bytes += sum(len(s) for s in strings)
            if (
                len(pool) + len(strings) > MAX_POOL_STRINGS
                or pool_bytes > pool_byte_limit()
            ):
                raise ValueError(
                    f"string pool exceeds the decoder budget after "
                    f"{len(pool) + len(strings)} entries"
                )
            pool.extend(strings)
            et = _read_block(handle)
            if len(et) != rows:
                raise ValueError(
                    f"et column has {len(et)} rows, header says {rows}"
                )
            if sum(counts.values()) != rows:
                raise ValueError(
                    f"group counts sum to {sum(counts.values())}, "
                    f"header says {rows} rows"
                )
            groups: Dict[str, object] = {}
            for key, blocks in _GROUP_BLOCKS:
                if counts.get(key):
                    arrays = tuple(_read_block(handle) for _ in range(blocks))
                    if len(arrays[0]) != counts[key]:
                        raise ValueError(
                            f"group {key!r} has {len(arrays[0])} rows, "
                            f"header says {counts[key]}"
                        )
                    groups[key] = arrays if blocks > 1 else arrays[0]
            if counts.get("r"):
                seeds = _read_block(handle)
                if len(seeds) != counts["r"]:
                    raise ValueError(
                        f"group 'r' has {len(seeds)} rows, "
                        f"header says {counts['r']}"
                    )
                groups["r"] = seeds
            if HOT.enabled:
                HOT.trace_chunks.inc()
                HOT.trace_rows.inc(rows)
            yield Chunk(
                path, block, rows, last_good, et, groups, pool, memos
            )
            recovered += rows
            last_good = handle.tell()
        if recovered != declared:
            raise TraceCorruptionError(
                path, block + 1, last_good,
                f"file ends after {recovered} of {declared} declared events",
                events_recovered=recovered,
            )
    except TraceCorruptionError:
        raise
    except (
        json.JSONDecodeError, KeyError, ValueError, TypeError, IndexError,
        EOFError, UnicodeDecodeError, gzip.BadGzipFile, zlib.error, OSError,
        RecursionError, ConfigError,
    ) as exc:
        raise TraceCorruptionError(
            path, block, last_good,
            f"{type(exc).__name__}: {exc}",
            events_recovered=recovered,
        ) from exc


def read_events(source, salvage: bool = False, path: Optional[str] = None):
    """Read all events; returns ``(events, corruption_or_None)``.

    With ``salvage=False`` corruption raises; with ``salvage=True`` the
    intact chunk-prefix is returned alongside the corruption record.
    """
    events: List[object] = []
    corruption: Optional[TraceCorruptionError] = None
    try:
        for chunk in iter_chunks(source, path=path):
            events.extend(chunk.events())
    except TraceCorruptionError as exc:
        corruption = TraceCorruptionError(
            exc.path, exc.block, exc.last_good_offset, exc.reason,
            events_recovered=len(events),
        )
    if corruption is not None and not salvage:
        raise corruption
    return events, corruption


def stream_events(source, path: Optional[str] = None) -> Iterator:
    """Lazily yield events chunk by chunk (no whole-trace materialization)."""
    for chunk in iter_chunks(source, path=path):
        yield from chunk.events()
