"""The four workloads: which public altkit calls one round makes.

A *call* is one public entry point: ``run_suite`` on one suite x ring x
arity, one ``run_instance`` or one ``run_probe``.  Every call draws its
input from a recorded *pool*: a suite seed for ``run_suite``, or an index
that this module turns into a probe payload; ``run_instance`` reads the
bundled fixtures.  The report each call renders to is recorded, with its
sha256, in ``oracle.json``, so every output the benchmark can produce is
checked against a recorded digest.

A *slot* is one kind of call (say ``basis`` over q at n = 5) that a round
repeats ``k`` times.  Its pool holds ``k * m`` entries, sorted by the cost
recorded with them and cut into ``k`` strata of similar cost; a round
takes one entry from each stratum.  At n = 5 one input can cost
twenty times another, so drawing freely would let the seed, not the
program, set the figures.  Stratifying keeps the same mix of cheap and
dear inputs in every round, while ``--seed`` still picks which ones.
"""

import json
import math
import os
import random
from dataclasses import dataclass

RINGS = ("q", "fp:5")

IDENTITY_SUITES = (
    "ts_linearity",
    "degree_relation",
    "n11_linearity",
    "symmetric_span",
    "coefficient",
    "r_span",
    "traceexp",
)

# monomials per explicit-tuples probe payload
PROBE_TUPLES = 300

FIXTURES = (
    ("sqrt2.json", None),
    ("t2_minus_s.json", None),
    ("sqrt2.json", "gen_etale"),
)
# each fixture call is made this often a round: enough calls that
# call_ms.tail has ten beyond it
FIXTURE_REPEATS = 14


@dataclass(frozen=True)
class Slot:
    """One kind of call; ``k`` calls a round from ``k * m`` pool entries."""

    kind: str  # "suite" or "probe"
    name: str  # suite name or "payload"
    ring: str
    n: int
    k: int
    m: int
    max_degree: int | None = None
    max_terms: int | None = None
    column: bool = False  # timed apart; feeds only the case_ms metrics

    @property
    def pool_size(self):
        return self.k * self.m


def _suites(names, ns, k, m, **kw):
    return [
        Slot("suite", name, ring, n, k(n), m, **kw)
        for name in names
        for ring in RINGS
        for n in ns
    ]


def _workload_slots():
    identities = _suites(IDENTITY_SUITES, (2, 3, 4), lambda n: 4 if n == 4 else 2, 3)
    identities += _suites(IDENTITY_SUITES, (5,), lambda n: 3, 2)
    # n = 5 draws one-term elements of degree <= 1: a default-bounds case
    # there costs 0.4-9 s, more than a run can hold in a steady mix
    coordinates = _suites(
        ("trace_formula", "basis"), (3, 4), lambda n: 3 if n == 3 else 8, 2
    ) + _suites(
        ("trace_formula", "basis"), (5,), lambda n: 3, 2, max_degree=1, max_terms=1
    )
    probe = _suites(("probe_diagonal",), (3, 4, 5), lambda n: 4 if n < 5 else 2, 3)
    probe += [Slot("probe", "payload", ring, n, 4, 2) for ring in RINGS for n in (3, 4, 5)]
    # the fixture calls (see draw_round) are all rank 2; this slice supplies
    # the per-column case_ms metrics every workload must print, timed
    # apart from them
    instance = _suites(("ts_linearity",), (4, 5), lambda n: 4 if n == 4 else 2, 2, column=True)
    return {
        "identities": identities,
        "coordinates": coordinates,
        "probe": probe,
        "instance": instance,
    }


WORKLOADS = _workload_slots()


# ---------------------------------------------------------------------------
# calls


def fixture_call(filename, mode):
    return {"kind": "instance", "fixture": filename, "mode": mode, "ring": "q", "n": 2}


def pool_call(slot, index):
    """The call that pool entry ``index`` of ``slot`` stands for."""
    if slot.kind == "suite":
        return {
            "kind": "suite",
            "suite": slot.name,
            "ring": slot.ring,
            "n": slot.n,
            "cases": 1,
            "seed": index,
            "max_degree": slot.max_degree,
            "max_terms": slot.max_terms,
        }
    return {
        "kind": slot.kind,
        "family": slot.name,
        "ring": slot.ring,
        "n": slot.n,
        "index": index,
    }


def call_key(call):
    """Stable text key of a call, used to look up its recorded digest."""
    return json.dumps(call, sort_keys=True, separators=(",", ":"))


def _strata(entries, k):
    """Cut (index, cost) entries, sorted by cost, into k runs of least
    total spread in log cost (Jenks' natural breaks)."""
    entries = sorted(entries, key=lambda e: (e[1], e[0]))
    count = len(entries)
    logs = [math.log(max(ms, 1e-3)) for _, ms in entries]

    def spread(a, b):
        part = logs[a:b]
        mean = sum(part) / len(part)
        return sum((x - mean) ** 2 for x in part)

    # best[j, b]: least spread of entries[:b] cut into j runs, and the last cut
    best = {(0, 0): (0.0, 0)}
    for j in range(1, k + 1):
        for b in range(j, count - (k - j) + 1):
            best[j, b] = min(
                (best[j - 1, a][0] + spread(a, b), a)
                for a in range(j - 1, b)
                if (j - 1, a) in best
            )
    runs, b = [], count
    for j in range(k, 0, -1):
        a = best[j, b][1]
        runs.append(entries[a:b])
        b = a
    return runs[::-1]


def draw_round(workload, seed, oracle):
    """The calls of one round: (slot or None, call) pairs in run order.

    The same seed gives the same calls, in the same order.
    """
    rng = random.Random(f"{workload}:{seed}")
    calls = []
    if workload == "instance":
        calls.extend(
            (None, fixture_call(f, mode))
            for f, mode in FIXTURES
            for _ in range(FIXTURE_REPEATS)
        )
    for slot in WORKLOADS[workload]:
        costs = []
        for index in range(slot.pool_size):
            entry = oracle.get(call_key(pool_call(slot, index)))
            costs.append((index, entry["ms"] if entry else 0.0))
        for stratum in _strata(costs, slot.k):
            calls.append((slot, pool_call(slot, rng.choice(stratum)[0])))
    rng.shuffle(calls)
    return calls


def all_pool_calls(workload):
    calls = []
    if workload == "instance":
        calls.extend(fixture_call(f, mode) for f, mode in FIXTURES)
    for slot in WORKLOADS[workload]:
        calls.extend(pool_call(slot, i) for i in range(slot.pool_size))
    return calls


# ---------------------------------------------------------------------------
# inputs


def probe_payload(call):
    """Explicit-tuples probe: n points with one repeated, so every
    determinant vanishes and the whole tuple list is evaluated."""
    n, ring = call["n"], call["ring"]
    rng = random.Random(f"payload:{ring}:{n}:{call['index']}")
    if ring == "q":
        coords = range(-9, 10)
    else:
        coords = range(int(ring.split(":")[1]))
    pool = [(a, b) for a in coords for b in coords]
    points = [list(p) for p in rng.sample(pool, n - 1)]
    points.append(list(points[rng.randrange(n - 1)]))
    grid = [(a, b) for a in range(n) for b in range(n)]
    tuples = [
        [list(mono) for mono in rng.sample(grid, n)] for _ in range(PROBE_TUPLES)
    ]
    return json.dumps({"ring": ring, "points": points, "tuples": tuples})


def fixture_path(call, root):
    """Path of the bundled fixture an instance call reads."""
    return os.path.join(root, "src", "altkit", "fixtures", call["fixture"])
