"""Pairwise static race checking over extracted kernel traces.

The question the checker answers, per instruction site *s*: can an access
at *s* ever be the **current** access of a race the dynamic detector
reports?  Races are blamed on the current access's ip
(:meth:`IGuardCore.report_race`), so the per-site may-race set is exactly
what the fuzzer's soundness gate needs: it asserts dynamically reported
ips are a subset of the may-race set.

The metadata entry an access is checked against always snapshots some
*earlier* access ``o`` to the same granule (or is invalid, check P1 — a
safe path).  So ``may_race(s) = ∃ o : pair_unsafe(o → s)``, quantified
over every other access to the granule, including accesses from third
sites: flag pollution by a third access is covered because that third
access is itself an ``o`` in the quantification, and rules are written to
be robust to flags set by accesses other than ``o`` (granule-global facts
from :mod:`repro.analysis.phases`).

A pair is pronounced *safe* only through arguments that mirror the
dynamic checks' own short circuits:

- **P3** same thread;
- load vs. non-write (a load is only ever checked against the last
  *writer*);
- **P4** same warp, different warp interval: the live warp counter at the
  later access necessarily differs from the snapshot (see
  :mod:`repro.analysis.phases` for why no alignment side condition is
  needed);
- **P5** same block, different block interval — valid only when the
  granule is single-block, else a third access can set ``DevShared`` and
  defeat P5;
- **P6** atomic–atomic: same block always; cross-block iff the *earlier*
  atomic's scope is device-wide (its writeback is what sets the entry's
  Scope flag while it is the snapshot);
- the **fence-publication chain**: ``o``, then a sufficiently scoped
  fence by ``o``'s thread, then that thread's only value-changing writes
  to a fresh flag granule, which ``s``'s thread provably spins on before
  ``s``.  The spin pins the dynamic order, the fence bumps the counter
  the R2/R3/R4 checks compare.  Requires a CAS/EXCH-free kernel (lock
  blooms stay empty, R5 cannot fire) and is barred when ``o`` is a
  cross-block block-scoped atomic (R1 ignores fences entirely).

Anything not proven safe is classified with the paper's taxonomy (AS /
ITS / BR / DR, plus IL for lock-inference candidates) and paired with the
race type's fix from :data:`repro.core.report.CAUSE_OF`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.extract import (
    GRANULARITY_BYTES,
    KernelSummary,
    StaticAccess,
    ThreadTrace,
)
from repro.analysis.phases import GranuleFacts, SiteRecord, granule_facts
from repro.core.report import CAUSE_OF, RaceType
from repro.gpu.events import AccessKind
from repro.gpu.instructions import AtomicOp, Scope, scope_covers

#: Pairwise evaluations per kernel before the checker gives up and marks
#: the remaining sites may-race (still sound: conservatism only ever
#: grows the may-race set).
PAIR_BUDGET = 200_000

#: Race-type labels, matching repro.core.report.RaceType values.
AS, ITS, BR, DR, IL = "AS", "ITS", "BR", "DR", "IL"


@dataclass(frozen=True)
class Finding:
    """One may-race verdict at one instruction site."""

    ip: str
    race_type: str
    granule: int
    address: int
    access: str  # current access kind ("load"/"store"/"atomic")
    other_ip: str
    other_access: str
    same_block: bool
    same_warp: bool
    fix_hint: str

    def to_json(self) -> Dict:
        return {
            "ip": self.ip,
            "race_type": self.race_type,
            "granule": self.granule,
            "address": self.address,
            "access": self.access,
            "other_ip": self.other_ip,
            "other_access": self.other_access,
            "same_block": self.same_block,
            "same_warp": self.same_warp,
            "fix_hint": self.fix_hint,
        }


@dataclass
class KernelReport:
    """The static verdict for one kernel launch."""

    kernel_name: str
    analyzable: bool
    reason: Optional[str] = None
    sites: List[str] = field(default_factory=list)
    safe_sites: Set[str] = field(default_factory=set)
    findings: List[Finding] = field(default_factory=list)
    has_lock_ops: bool = False
    truncated: bool = False  # pair budget exhausted

    @property
    def may_race_sites(self) -> Set[str]:
        return {s for s in self.sites if s not in self.safe_sites}

    @property
    def race_types(self) -> Set[str]:
        return {f.race_type for f in self.findings}

    def allows_dynamic_site(self, ip: str) -> bool:
        """Soundness-gate predicate: may the detector report at ``ip``?

        Unanalyzable kernels allow everything; analyzable kernels allow
        exactly the may-race set.  A dynamic report at a site extraction
        never saw is a footprint mismatch and therefore also a violation.
        """
        if not self.analyzable:
            return True
        return ip in self.sites and ip not in self.safe_sites


def _chain_orders(
    o: SiteRecord,
    s: SiteRecord,
    o_trace: ThreadTrace,
    s_trace: ThreadTrace,
    facts: Dict[int, GranuleFacts],
    memory_value: Optional[Callable[[int], Optional[int]]],
) -> bool:
    """Fence-publication chain: o → fence → flag bump ⇒ spin ⇒ s."""
    if memory_value is None:
        return False
    oa, sa = o.access, s.access
    cross_block = oa.location.block_id != sa.location.block_id
    # R1 checks the last writer's scope flag regardless of fences: a
    # cross-block block-scoped atomic writer can always fire it.
    if (
        oa.is_atomic
        and cross_block
        and not scope_covers(oa.scope, Scope.DEVICE)
    ):
        return False
    o_tid = oa.location.global_tid
    # Candidate flag granules: ones s's thread provably spins on before s.
    spin_granules = {
        a.granule
        for a in s_trace.accesses
        if a.spin and a.index < s.min_index
    }
    if not spin_granules:
        return False
    for position, fence_scope in o_trace.fences:
        if position <= o.max_index:
            continue
        if cross_block and not scope_covers(fence_scope, Scope.DEVICE):
            continue
        for flag in spin_granules:
            fact = facts.get(flag)
            if fact is None:
                continue
            # Single writer: only o's thread can change the flag's value.
            if fact.changing_writer_tids != {o_tid}:
                continue
            # Every value-changing write to the flag sits after the fence
            # in o's program order (any observed bump is post-fence).
            bumps = [
                r
                for r in fact.records
                if r.access.value_changing
                and r.access.location.global_tid == o_tid
            ]
            if not bumps or any(r.min_index <= position for r in bumps):
                continue
            # The spin cannot be satisfied by the flag's initial value:
            # extraction observed value 0 *not* releasing it, so require
            # the pre-launch word to be 0.
            if memory_value(flag * GRANULARITY_BYTES) != 0:
                continue
            return True
    return False


def _pair_safe(
    o: SiteRecord,
    s: SiteRecord,
    fact: GranuleFacts,
    summary_has_locks: bool,
    facts: Dict[int, GranuleFacts],
    traces_by_tid: Dict[int, ThreadTrace],
    memory_value: Optional[Callable[[int], Optional[int]]],
) -> bool:
    """Can ``s`` never report a race while ``o`` is the stale snapshot?"""
    oa, sa = o.access, s.access
    # P3: same thread — program order, the detector's identity check.
    if oa.location.global_tid == sa.location.global_tid:
        return True
    # A load is only checked against the last *writer*.
    if sa.kind is AccessKind.LOAD and not oa.is_write:
        return True
    # P4: same warp, different warp interval.
    if (
        oa.location.warp_id == sa.location.warp_id
        and oa.warp_interval != sa.warp_interval
    ):
        return True
    # P5: same block, different block interval, granule private to the block.
    if (
        oa.location.block_id == sa.location.block_id
        and oa.blk_interval != sa.blk_interval
        and fact.single_block
    ):
        return True
    # P6: atomic vs. atomic.
    if oa.is_atomic and sa.is_atomic:
        if oa.location.block_id == sa.location.block_id:
            return True
        if scope_covers(oa.scope, Scope.DEVICE):
            return True
    # Fence-publication chain (lock-free kernels only: with CAS/EXCH in
    # play the lockset check R5 can fire on any surviving pair, and the
    # lock tables cannot be modeled soundly from a static trace).  Two
    # roles for one argument:
    #   forward  — o happens-before s with a fence the detector credits,
    #              so every ordering check on the stale snapshot passes;
    #   reverse  — s happens-before o, so o can never *be* the stale
    #              snapshot when s is checked (o strictly follows s in
    #              every execution the spin permits).
    if not summary_has_locks:
        o_trace = traces_by_tid[oa.location.global_tid]
        s_trace = traces_by_tid[sa.location.global_tid]
        if _chain_orders(o, s, o_trace, s_trace, facts, memory_value):
            return True
        if _chain_orders(s, o, s_trace, o_trace, facts, memory_value):
            return True
    return False


def _holds_inferred_lock(record: SiteRecord, trace: ThreadTrace) -> bool:
    """Did the thread CAS-acquire before this access (lock candidate)?"""
    return any(
        a.atomic_op is AtomicOp.CAS and a.index < record.min_index
        for a in trace.accesses
    )


def _classify(
    o: SiteRecord,
    s: SiteRecord,
    summary_has_locks: bool,
    traces_by_tid: Dict[int, ThreadTrace],
) -> str:
    """Map an unsafe pair onto the paper's race taxonomy (R1..R5 order)."""
    oa, sa = o.access, s.access
    cross_block = oa.location.block_id != sa.location.block_id
    if (
        oa.is_atomic
        and sa.is_atomic
        and cross_block
        and (
            not scope_covers(oa.scope, Scope.DEVICE)
            or not scope_covers(sa.scope, Scope.DEVICE)
        )
    ):
        return AS
    if oa.location.warp_id == sa.location.warp_id:
        return ITS
    if not cross_block:
        return BR
    if (
        summary_has_locks
        and _holds_inferred_lock(o, traces_by_tid[oa.location.global_tid])
        and _holds_inferred_lock(s, traces_by_tid[sa.location.global_tid])
    ):
        return IL
    return DR


def analyze_kernel(
    summary: KernelSummary,
    memory_value: Optional[Callable[[int], Optional[int]]] = None,
    pair_budget: int = PAIR_BUDGET,
) -> KernelReport:
    """Run the pairwise checker over an extracted kernel summary.

    ``memory_value`` maps a byte address to the pre-launch memory word
    (enables the fence-publication chain rule); ``None`` disables chains.
    """
    report = KernelReport(
        kernel_name=summary.kernel_name,
        analyzable=summary.analyzable,
        reason=summary.reason,
        has_lock_ops=summary.has_lock_ops,
    )
    if not summary.analyzable:
        return report
    report.sites = summary.all_sites()
    report.safe_sites = set(report.sites)
    facts = granule_facts(summary)
    traces_by_tid = {t.location.global_tid: t for t in summary.threads}
    has_locks = summary.has_lock_ops
    seen_findings: Set[Tuple[str, str]] = set()
    pairs_left = pair_budget
    for fact in sorted(facts.values(), key=lambda f: f.granule):
        for s in fact.records:
            for o in fact.records:
                if o is s:
                    continue  # same thread: P3 would prove it anyway
                pairs_left -= 1
                if pairs_left < 0:
                    report.truncated = True
                    break
                if _pair_safe(
                    o, s, fact, has_locks, facts, traces_by_tid, memory_value
                ):
                    continue
                report.safe_sites.discard(s.access.ip)
                race_type = _classify(o, s, has_locks, traces_by_tid)
                key = (s.access.ip, race_type)
                if key not in seen_findings:
                    seen_findings.add(key)
                    report.findings.append(
                        Finding(
                            ip=s.access.ip,
                            race_type=race_type,
                            granule=fact.granule,
                            address=s.access.address,
                            access=s.access.kind.value,
                            other_ip=o.access.ip,
                            other_access=o.access.kind.value,
                            same_block=(
                                o.access.location.block_id
                                == s.access.location.block_id
                            ),
                            same_warp=(
                                o.access.location.warp_id
                                == s.access.location.warp_id
                            ),
                            fix_hint=CAUSE_OF[RaceType(race_type)].fix,
                        )
                    )
            if report.truncated:
                break
        if report.truncated:
            break
    if report.truncated:
        # Budget exhausted mid-quantification: only a *complete* pass can
        # prove safety, so the blanket answer is "nothing is safe".
        report.safe_sites = set()
    report.findings.sort(key=lambda f: (f.ip, f.race_type))
    return report
