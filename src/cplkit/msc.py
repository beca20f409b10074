"""Message sequence charts: events on lifelines, message matching, causal order.

A chart is a finite partially ordered execution. Each lifeline owns a
linearly ordered sequence of events (the ``succ`` chain); matched
send/receive pairs add cross-lifeline edges. The causal order ``<=_M`` is
the reflexive transitive closure of both edge kinds, and is a partial
order whenever the chart is well-formed.

Every chart is read-only from the moment it is built, whether by
``load_trace``, ``gen_random_msc``, :meth:`Msc.grow` or ``Msc(...)`` in
code: its tables and valuations are read-only views over dicts no caller
holds, so an edit fails where it is made. Every cache on a chart is
therefore valid forever, and a chart is safe to query from any thread.
Causal queries read per-event vector timestamps built once per chart, by
the walk that validates it (:func:`validate_msc`) or else on the first
causal query: component ``B`` of an event's timestamp counts the
``B``-events in its causal past (including the event itself on its own
lifeline), so ``e <=_M f`` reduces to one integer comparison.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

#: Stored values are plain tagged scalars. Tags never coerce: an integer 1
#: and a boolean true are different values, so every comparison goes
#: through exact ``type()`` checks, never isinstance (bool subclasses int).
Value = int | str | bool

#: Integers are signed 64-bit, in traces and guard literals alike.
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

#: A valuation maps variable names to values; a missing key is the
#: distinguished "undefined" outcome, not an error. A chart's valuations
#: are read-only.
Valuation = Mapping[str, Value]

EVENT_TAGS = ("act", "recv", "choice", "send")


class MscError(Exception):
    """Raised for queries with unknown events/lifelines or malformed charts."""


def values_equal(a: Value | None, b: Value | None) -> bool:
    """Tag-exact equality; also true when both sides are undefined (None)."""
    if a is None or b is None:
        return a is None and b is None
    return type(a) is type(b) and a == b


@dataclass(frozen=True)
class EventKind:
    """Classification of one event; ``receiver`` is set exactly for sends."""

    tag: str
    receiver: str | None = None

    def __post_init__(self) -> None:
        if self.tag not in EVENT_TAGS:
            raise MscError(f"unknown event kind {self.tag!r}")
        if (self.receiver is not None) != (self.tag == "send"):
            raise MscError("receiver must be present exactly on send events")


@dataclass(frozen=True)
class Msc:
    """One execution: events, local succession, message matching, valuations.

    Fields mirror the chart structure directly:

    * ``lifelines`` — declared participants, in declaration order.
    * ``events`` — event ids (unique naturals; ids carry no meaning).
    * ``kind`` / ``pid`` / ``val`` — per-event classification, owner
      lifeline, and post-event valuation.
    * ``succ`` — immediate local successor (partial map).
    * ``msg`` — send id -> receive id for delivered messages; sends
      missing from this map are still in transit.

    A chart is read-only: ``Msc(...)`` keeps read-only copies of the
    tables and valuations it is given, so no caller's dict is shared.
    """

    lifelines: tuple[str, ...]
    events: tuple[int, ...]
    kind: Mapping[int, EventKind]
    pid: Mapping[int, str]
    val: Mapping[int, Valuation]
    succ: Mapping[int, int]
    msg: Mapping[int, int]

    # The causal-query tables, kept by the walk that validated the chart or
    # else by its first causal query (well-formed chains only; _vts is set
    # last), and Kahn's tables, kept on their first use.
    _by_lifeline: dict[str, tuple[int, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _local_idx: dict[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _vts: dict[int, dict[str, int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _schedule: KahnTables | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _freeze(self, self.lifelines, self.events, dict(self.kind), dict(self.pid),
                {e: MappingProxyType(dict(v)) for e, v in self.val.items()},
                dict(self.succ), dict(self.msg))

    @classmethod
    def _own(cls, lifelines, events, kind, pid, val, succ, msg, **analysis) -> "Msc":
        """A chart over dicts built for it alone, each valuation read-only
        already: the tables are frozen where they are, not copied."""
        return _freeze(object.__new__(cls), lifelines, events, kind, pid, val, succ, msg,
                       **analysis)

    def __reduce__(self):
        """Pickle and copy a chart as the call that builds it again (its
        read-only views do not pickle)."""
        return Msc, (self.lifelines, self.events, self.kind.copy(), self.pid.copy(),
                     {e: v.copy() for e, v in self.val.items()}, self.succ.copy(),
                     self.msg.copy())

    # ------------------------------------------------------------------ #
    # Navigation and order queries
    # ------------------------------------------------------------------ #

    def causal_leq(self, e: int, f: int) -> bool:
        """True iff ``e <=_M f`` (reflexive)."""
        self._check_event(e)
        self._check_event(f)
        self._ensure_analysis()
        if e == f:
            return True
        # f's causal past contains e iff it contains at least local_index(e)
        # events of e's lifeline (causal pasts are local prefixes).
        return self._vts[f].get(self.pid[e], 0) >= self._local_idx[e]

    def last_loc(self, e: int) -> int | None:
        """The immediate local predecessor of ``e``, or None if ``e`` is first."""
        self._check_event(e)
        self._ensure_analysis()
        k = self._local_idx[e]
        if k == 1:
            return None
        return self._by_lifeline[self.pid[e]][k - 2]

    def last_visible(self, e: int, b: str) -> int | None:
        """The latest event of lifeline ``b`` in the causal past of ``e``.

        Non-strict: when ``e`` is on ``b``, the answer is ``e`` itself.
        None when no ``b``-event is causally visible.
        """
        self._check_event(e)
        self._check_lifeline(b)
        self._ensure_analysis()
        k = self._vts[e].get(b, 0)
        if k == 0:
            return None
        return self._by_lifeline[b][k - 1]

    def local_index(self, e: int) -> int:
        """Position of ``e`` on its own lifeline, counting from 1."""
        self._check_event(e)
        self._ensure_analysis()
        return self._local_idx[e]

    def events_of(self, b: str) -> tuple[int, ...]:
        """Events of lifeline ``b`` in local order."""
        self._check_lifeline(b)
        self._ensure_analysis()
        return self._by_lifeline[b]

    def is_linear_extension(self, seq: list[int]) -> bool:
        """True iff ``seq`` is a permutation of the events respecting ``<=_M``.

        Checking the generating edges (succ and msg) suffices, since the
        causal order is their reflexive transitive closure.
        """
        if sorted(seq) != sorted(self.events):
            return False
        pos = {e: i for i, e in enumerate(seq)}
        for src, dst in self.succ.items():
            if pos[src] >= pos[dst]:
                return False
        for src, dst in self.msg.items():
            if pos[src] >= pos[dst]:
                return False
        return True

    def timestamp_column(self, b: str) -> list[int]:
        """Component ``b`` of every event's vector timestamp, in ``events``
        order: how many ``b``-events each event sees. Copies no timestamp."""
        self._check_lifeline(b)
        self._ensure_analysis()
        vts = self._vts
        return [vts[e].get(b, 0) for e in self.events]

    # ------------------------------------------------------------------ #
    # Growth
    # ------------------------------------------------------------------ #

    def grow(
        self, arms: Sequence[tuple[str, Sequence[tuple[int, EventKind, Valuation]]]]
    ) -> "Msc":
        """A new chart: this one with each ``(owner, events)`` arm
        appended in turn, its events given as ``(id, kind, valuation)``
        and chained in order after ``owner``'s last event so far. New
        events follow this chart's in ``events``, in arm order.

        Receives cannot be appended (their send would be missing), so the
        new events see nothing beyond their owner's past and the analysis
        carries over: each owner's chain, local indices and timestamps are
        extended, and this chart's valuations and every other table are
        shared. Each new valuation is kept as a read-only copy.
        """
        for owner, _ in arms:
            self._check_lifeline(owner)
        self._ensure_analysis()
        kind, pid, val = self.kind.copy(), self.pid.copy(), self.val.copy()
        succ, local_idx, vts = self.succ.copy(), self._local_idx.copy(), self._vts.copy()
        chains: dict[str, list[int]] = {}
        for owner, events in arms:
            chain = chains.get(owner)
            if chain is None:
                chain = chains[owner] = list(self._by_lifeline[owner])
            ts = vts[chain[-1]] if chain else {}
            for eid, k, v in events:
                if eid in kind:
                    raise MscError(f"event {eid} is already in the chart")
                if k.tag == "recv":
                    raise MscError(f"cannot append receive {eid} without its send")
                if k.tag == "send" and (k.receiver == owner or k.receiver not in self.lifelines):
                    raise MscError(f"send {eid} must go to another declared lifeline")
                kind[eid], pid[eid], val[eid] = k, owner, MappingProxyType(dict(v))
                if chain:
                    succ[chain[-1]] = eid
                chain.append(eid)
                local_idx[eid] = len(chain)
                ts = vts[eid] = {**ts, owner: len(chain)}
        return Msc._own(
            self.lifelines,
            self.events + tuple(eid for _, arm in arms for eid, _, _ in arm),
            kind, pid, val, succ, self.msg.copy(),
            _by_lifeline={**self._by_lifeline, **{b: tuple(c) for b, c in chains.items()}},
            _local_idx=local_idx,
            _vts=vts,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _check_event(self, e: int) -> None:
        if e not in self.kind:
            raise MscError(f"no such event: {e}")

    def _check_lifeline(self, b: str) -> None:
        if b not in self.lifelines:
            raise MscError(f"no such lifeline: {b!r}")

    def _ensure_analysis(self) -> None:
        if self._vts is not None:
            return
        chains, broken = local_chains(self)
        if broken:
            raise MscError(f"lifeline {broken[0]!r} is not a single chain")
        order = topological_order(self, schedule=self.scheduling_tables())
        if len(order) != len(self.events):
            raise MscError("event graph is cyclic")
        _keep_analysis(self, chains, order)

    def scheduling_tables(self) -> KahnTables:
        """The chart's :func:`kahn_tables`, for :func:`topological_order`:
        built on the first call and kept."""
        if self._schedule is None:
            object.__setattr__(self, "_schedule", kahn_tables(self))
        return self._schedule


def _freeze(m: Msc, lifelines, events, kind, pid, val, succ, msg, **analysis) -> Msc:
    """``m`` with its fields set to read-only views over the given dicts."""
    m.__dict__.update(
        lifelines=tuple(lifelines), events=tuple(events), kind=MappingProxyType(kind),
        pid=MappingProxyType(pid), val=MappingProxyType(val), succ=MappingProxyType(succ),
        msg=MappingProxyType(msg), **analysis,
    )
    return m


# ---------------------------------------------------------------------- #
# Chart passes, shared by the analysis, the validator and the scheduler
# ---------------------------------------------------------------------- #

def local_chains(m: Msc) -> tuple[dict[str, list[int]], list[str]]:
    """Walk each lifeline's ``succ`` chain from its one head, in
    O(events + |succ|). Returns the chains and the lifelines whose events
    do not form a single chain (no unique head, or a walk that stops
    before covering them); their chains are partial."""
    members: dict[str, list[int]] = {b: [] for b in m.lifelines}
    for e in m.events:
        members.setdefault(m.pid[e], []).append(e)
    has_pred = set(m.succ.values())
    chains: dict[str, list[int]] = {}
    broken: list[str] = []
    for b, evs in members.items():
        heads = [e for e in evs if e not in has_pred]
        chain = heads[:1]
        seen = set(chain)
        while chain and chain[-1] in m.succ:
            nxt = m.succ[chain[-1]]
            if nxt in seen or m.pid.get(nxt) != b:
                break
            chain.append(nxt)
            seen.add(nxt)
        if evs and (len(heads) != 1 or len(chain) != len(evs)):
            broken.append(b)
        chains[b] = chain
    return chains, broken


def _keep_analysis(m: Msc, chains: dict[str, list[int]], order: list[int]) -> None:
    """Keep on ``m`` the causal-query tables of its single ``chains`` and its
    complete topological ``order``, ``_vts`` last."""
    by_lifeline = {b: tuple(chain) for b, chain in chains.items()}
    local_idx = {e: i for chain in chains.values() for i, e in enumerate(chain, 1)}
    msg_rev = {r: s for s, r in m.msg.items()}
    vts: dict[int, dict[str, int]] = {}
    for e in order:
        k = local_idx[e]
        ts = dict(vts[by_lifeline[m.pid[e]][k - 2]]) if k > 1 else {}
        if m.kind[e].tag == "recv" and e in msg_rev:
            for b, n in vts[msg_rev[e]].items():
                if n > ts.get(b, 0):
                    ts[b] = n
        ts[m.pid[e]] = k
        vts[e] = ts
    m.__dict__.update(_by_lifeline=by_lifeline, _local_idx=local_idx, _vts=vts)


#: Kahn's tables: each event's in-degree, its out-edges, and the sorted
#: events of in-degree 0, read-only so that a kept copy serves every schedule.
KahnTables = tuple[Mapping[int, int], Mapping[int, tuple[int, ...]], tuple[int, ...]]


def kahn_tables(m: Msc) -> KahnTables:
    """The :data:`KahnTables` of the successor and message edges; edges with
    an unknown end are skipped."""
    indeg = dict.fromkeys(m.events, 0)
    out: dict[int, list[int]] = {e: [] for e in m.events}
    for edges in (m.succ, m.msg):
        for src, dst in edges.items():
            if src in indeg and dst in indeg:
                out[src].append(dst)
                indeg[dst] += 1
    ready = tuple(sorted(e for e, n in indeg.items() if n == 0))
    return MappingProxyType(indeg), MappingProxyType({e: tuple(f) for e, f in out.items()}), ready


def topological_order(m: Msc, pick=None, schedule: KahnTables | None = None) -> list[int]:
    """Kahn's algorithm over ``schedule``, by default :func:`kahn_tables`
    of ``m``, which it leaves unchanged. The ready list is kept sorted and
    ``pick(n)`` chooses which of its ``n`` events goes next (default: the
    smallest id). On a cyclic graph the order misses the cycle's events."""
    indeg, out, ready = schedule or kahn_tables(m)
    indeg, ready = indeg.copy(), list(ready)
    order: list[int] = []
    while ready:
        e = ready.pop(pick(len(ready)) if pick else 0)
        order.append(e)
        for f in out[e]:
            indeg[f] -= 1
            if indeg[f] == 0:
                insort(ready, f)
    return order


# ---------------------------------------------------------------------- #
# Well-formedness
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class Violation:
    """One broken well-formedness condition with its witnessing events."""

    condition: str  # "i" | "ii" | "iii" | "iv"
    detail: str
    events: tuple[int, ...] = ()


@dataclass(frozen=True)
class MscReport:
    """The violations :func:`validate_msc` found."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_msc(m: Msc) -> MscReport:
    """Check the four chart conditions; violations are data, not failures.

    (i)   local successor edges stay on one lifeline,
    (ii)  per lifeline, ``succ`` is the immediate-successor relation of a
          finite linear order,
    (iii) ``msg`` is a partial matching of sends to receives on distinct
          lifelines, with the send kind naming the receiver; every receive
          has exactly one matching send,
    (iv)  the graph of successor and message edges is acyclic.

    When (iv) and the chain part of (ii) hold, the same walk is the
    chart's analysis: ``m`` keeps its causal-query tables, and its Kahn's
    tables in any case.
    """
    bad: list[Violation] = []

    for src, dst in sorted(m.succ.items()):
        if m.pid.get(src) != m.pid.get(dst):
            bad.append(
                Violation("i", "local successor edge crosses lifelines", (src, dst))
            )

    # (ii): in/out degree <= 1 (out-degree holds by ``succ`` being a map)
    # and, per lifeline, one chain covering its events.
    preds: dict[int, int] = {}
    for dst in m.succ.values():
        preds[dst] = preds.get(dst, 0) + 1
    for e, n in sorted(preds.items()):
        if n > 1:
            bad.append(Violation("ii", "event has two local predecessors", (e,)))
    chains, broken = local_chains(m)
    for b in broken:
        bad.append(
            Violation(
                "ii",
                f"events of lifeline {b!r} do not form a single chain",
                tuple(sorted(e for e in m.events if m.pid[e] == b)),
            )
        )

    recv_matches: dict[int, int] = {}
    for s, r in sorted(m.msg.items()):
        ks, kr = m.kind.get(s), m.kind.get(r)
        if ks is None or ks.tag != "send":
            bad.append(Violation("iii", "message source is not a send event", (s, r)))
            continue
        if kr is None or kr.tag != "recv":
            bad.append(Violation("iii", "message target is not a receive event", (s, r)))
            continue
        if m.pid[s] == m.pid[r]:
            bad.append(Violation("iii", "message stays on one lifeline", (s, r)))
        if ks.receiver != m.pid[r]:
            bad.append(
                Violation("iii", "send kind names a different receiver", (s, r))
            )
        if r in recv_matches:
            bad.append(
                Violation("iii", "receive matched by two sends", (recv_matches[r], s, r))
            )
        recv_matches[r] = s
    for e in sorted(m.events):
        if m.kind[e].tag == "recv" and e not in recv_matches:
            bad.append(Violation("iii", "receive event has no matching send", (e,)))

    order = topological_order(m, schedule=m.scheduling_tables())
    if len(order) != len(m.events):
        bad.append(Violation("iv", "successor/message graph is cyclic"))
    elif not broken and m._vts is None:
        _keep_analysis(m, chains, order)
    return MscReport(tuple(bad))
