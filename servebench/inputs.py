"""Seeded inputs: theories, knowledge bases, database pools, request streams.

Everything random is drawn from :func:`rng_for`, one ``random.Random`` per
``(seed, concern)`` pair, so a workload's inputs are a pure function of
its seed and adding a concern never shifts another concern's draws.  The
server only ever sees the text these functions return.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

# ----------------------------------------------------------------------
# theories
# ----------------------------------------------------------------------
#: The knowledge-base theory of ``kb_reads`` and ``kb_live``: reachability
#: over an edge relation plus three derived relations a client asks for.
KB_THEORY = """\
E(x,y) -> T(x,y)
E(x,y), T(y,z) -> T(x,z)
T(x,y), L(y) -> Reach(x)
T(x,x) -> Cyc(x)
T(x,y), G(x,g), G(y,g) -> Peer(x,y)
"""
KB_OUTPUTS = ("Reach", "Cyc", "Peer")

#: ``kb_materialize``, routed by ``auto`` to the semi-naive engine:
#: transitive closure plus a cyclic (triangle) join over it.
DATALOG_THEORY = """\
E(x,y) -> T(x,y)
E(x,y), T(y,z) -> T(x,z)
T(x,y), T(y,z), T(z,x) -> Tri(x,y,z)
Tri(x,y,z) -> InTri(x)
T(x,y), S(y) -> ToS(x)
"""

#: The Section 7 weakly-guarded exemplar; the strategy advisor proves its
#: chase terminates, so ``auto`` routes it to the restricted chase.
CHASE_THEORY = """\
E(x,y) -> T(x,y)
E(x,y), T(y,z) -> T(x,z)
T(x,y) -> exists w. M(y, w)
M(y,w), T(x,y) -> Reach(x)
"""

#: A nearly-guarded theory whose chase does not terminate (``P`` spawns an
#: ``R``-successor that is ``P`` again), so ``auto`` translates it to
#: Datalog (Theorem 3 saturation).  Its Datalog part (a triangle join over
#: the closure, on unaffected positions) puts its cost between the other
#: two theories', so the workload's latency distribution has no gap for
#: the median to fall into.
TRANSLATE_THEORY = """\
E(x,y) -> T(x,y)
E(x,y), T(y,z) -> T(x,z)
T(x,y), T(y,z), T(z,x) -> Q(x)
Q(x), S(x) -> P(x)
T(x,y), S(y) -> P(x)
P(x) -> exists y. R(x,y)
R(x,y) -> P(y)
R(x,y), A(x) -> B(y)
B(y), R(x,y) -> C(x)
"""

#: A Datalog program with the same certain answers as
#: ``TRANSLATE_THEORY`` on every output, written out by hand so the
#: oracle does not share the registry's translation.  The only facts the
#: existential rule contributes over constants: a fresh ``R``-successor
#: ``n`` of ``x`` carries ``B(n)`` exactly when ``A(x)``, which yields
#: ``C(x)``; nothing else about ``n`` reaches a constant.
TRANSLATE_ORACLE_PROGRAM = """\
E(x,y) -> T(x,y)
E(x,y), T(y,z) -> T(x,z)
T(x,y), T(y,z), T(z,x) -> Q(x)
Q(x), S(x) -> P(x)
T(x,y), S(y) -> P(x)
R(x,y) -> P(y)
R(x,y), A(x) -> B(y)
B(y), R(x,y) -> C(x)
A(x), P(x) -> C(x)
"""

#: The Datalog equivalent of ``CHASE_THEORY`` on ``Reach``: every ``y``
#: with an incoming ``T`` edge gets an ``M``-successor, so ``Reach(x)``
#: holds exactly when ``x`` has an outgoing edge.
CHASE_ORACLE_PROGRAM = """\
E(x,y) -> Reach(x)
"""

#: name -> (theory text, output relations queried, strategy ``auto`` must
#: pick, oracle program: a Datalog program with the same answers on
#: those outputs, evaluated by the benchmark's own process).
MATERIALIZE_THEORIES = {
    "datalog": (DATALOG_THEORY, ("InTri", "ToS"), "datalog", DATALOG_THEORY),
    "chase": (CHASE_THEORY, ("Reach",), "chase", CHASE_ORACLE_PROGRAM),
    "translate": (TRANSLATE_THEORY, ("C", "P"), "translate", TRANSLATE_ORACLE_PROGRAM),
}


# ----------------------------------------------------------------------
# randomness
# ----------------------------------------------------------------------
def rng_for(seed: int, concern: str) -> random.Random:
    """An independent generator per ``(seed, concern)``."""
    digest = hashlib.sha256(f"servebench:{seed}:{concern}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def poisson_schedule(rng: random.Random, rate: float, duration: float) -> list[float]:
    """Arrival offsets (seconds) of a Poisson process of ``rate`` per
    second over ``[0, duration)``, conditioned on its expected count:
    ``round(rate * duration)`` independent uniform arrival times, sorted.
    Fixing the count keeps the offered load identical across seeds while
    the gaps stay exponential-like and bursty."""
    count = round(rate * duration)
    return sorted(rng.uniform(0.0, duration) for _ in range(count))


def unit_arrivals(rng: random.Random, count: int) -> list[float]:
    """``count`` arrival offsets of a unit-rate Poisson process.  Dividing
    them by a rate gives that rate's schedule with the same sample path,
    so probes at different rates differ only in the rate."""
    times, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(1.0)
        times.append(now)
    return times


def zipf_weights(n: int, exponent: float) -> list[float]:
    weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
    total = sum(weights)
    return [weight / total for weight in weights]


# ----------------------------------------------------------------------
# databases
# ----------------------------------------------------------------------
def _component_edges(rng: random.Random, nodes: list[str], edges: int) -> set:
    """A connected-ish random digraph on ``nodes``: a ring through every
    node with probability one half (so strongly connected components and
    cycles exist), topped up with random chords."""
    out: set[tuple[str, str]] = set()
    if rng.random() < 0.5:
        for index, node in enumerate(nodes):
            out.add((node, nodes[(index + 1) % len(nodes)]))
    while len(out) < edges:
        a, b = rng.sample(nodes, 2)
        out.add((a, b))
    return out


def knowledge_base(rng: random.Random, target_facts: int = 800, tag: str = "k") -> list[str]:
    """About ``target_facts`` facts over ``E``/``L``/``G``: components of
    ten nodes and fourteen edges, a third of the nodes labelled, two in
    five in one of twenty groups."""
    facts: list[str] = []
    component = 0
    while len(facts) < target_facts:
        nodes = [f"{tag}{component}_{index}" for index in range(10)]
        facts += [f"E({a},{b})" for a, b in sorted(_component_edges(rng, nodes, 14))]
        for node in nodes:
            if rng.random() < 0.3:
                facts.append(f"L({node})")
            if rng.random() < 0.4:
                facts.append(f"G({node},g{rng.randrange(20)})")
        component += 1
    return facts


def pool_sizes(rng: random.Random, count: int, low: int = 100, high: int = 300) -> list[int]:
    """``count`` database sizes spread evenly over ``[low, high]`` in a
    seeded order: every seed gets the same size distribution, so seeds
    differ in structure, not in how much data there is."""
    sizes = [low + round((high - low) * index / max(count - 1, 1)) for index in range(count)]
    rng.shuffle(sizes)
    return sizes


def pool_database(rng: random.Random, target: int) -> list[str]:
    """One ``kb_materialize`` database: about ``target`` facts over
    ``E``/``S``/``A``/``R`` in components of 8-16 nodes."""
    facts: list[str] = []
    component = 0
    while len(facts) < target:
        size = rng.randint(8, 16)
        nodes = [f"d{component}_{index}" for index in range(size)]
        facts += [
            f"E({a},{b})"
            for a, b in sorted(_component_edges(rng, nodes, int(size * 1.5)))
        ]
        for node in nodes:
            if rng.random() < 0.15:
                facts.append(f"S({node})")
            if rng.random() < 0.3:
                facts.append(f"A({node})")
            if rng.random() < 0.15:
                facts.append(f"R({node},{rng.choice(nodes)})")
        component += 1
    return facts


def render(facts) -> str:
    """Database text as the server receives it: one fact per line."""
    return "\n".join(f"{fact}." for fact in facts)


# ----------------------------------------------------------------------
# update stream (kb_live)
# ----------------------------------------------------------------------
@dataclass
class LiveStep:
    """One writer operation: an update batch or a query."""

    kind: str  # "update" | "query"
    insert: list = field(default_factory=list)
    retract: list = field(default_factory=list)
    output: str = ""


def live_stream(rng: random.Random, base: list[str], steps: int) -> list[LiveStep]:
    """A writer's closed-loop stream over ``base``: one update (1-5 facts,
    inserts and retracts mixed, each valid against the state the
    preceding updates leave) at a seeded place in every four steps, the
    rest queries.  The mix is exact so that seeds differ in what is
    written and read, not in how much of each."""
    current = set(base)
    nodes = sorted({arg for fact in base if fact.startswith("E(")
                    for arg in fact[2:-1].split(",")})
    out: list[LiveStep] = []
    update_at = 0
    for index in range(steps):
        if index % 4 == 0:
            update_at = index + rng.randrange(4)
        if index != update_at:
            out.append(LiveStep("query", output=rng.choice(KB_OUTPUTS)))
            continue
        size = rng.randint(1, 5)
        inserts, retracts = [], []
        present = sorted(current)
        for _ in range(size):
            if rng.random() < 0.5 and present:
                fact = rng.choice(present)
                if fact not in retracts and fact not in inserts:
                    retracts.append(fact)
                continue
            node = rng.choice(nodes)
            component = node.rsplit("_", 1)[0]
            roll = rng.random()
            if roll < 0.6:
                fact = f"E({node},{component}_{rng.randrange(10)})"
            elif roll < 0.85:
                fact = f"L({node})"
            else:
                fact = f"G({node},g{rng.randrange(20)})"
            if fact not in current and fact not in inserts and fact != f"E({node},{node})":
                inserts.append(fact)
        if not inserts and not retracts:
            retracts.append(rng.choice(present))
        current.difference_update(retracts)
        current.update(inserts)
        out.append(LiveStep("update", insert=inserts, retract=retracts))
    return out


def apply_step(state: set, step: LiveStep) -> set:
    """The extensional state after an update step (queries leave it)."""
    return (state - set(step.retract)) | set(step.insert)


def digest(obj) -> str:
    """A short, stable digest of a JSON-able stream description."""
    text = json.dumps(obj, sort_keys=True, default=lambda o: o.__dict__)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rate_bisection(lo: float, hi: float, passed: dict) -> float:
    """The next probe rate: the geometric midpoint of the highest passing
    and lowest failing rate seen (``passed`` maps rate -> bool)."""
    best = max([lo] + [rate for rate, ok in passed.items() if ok])
    worst = min([hi] + [rate for rate, ok in passed.items() if not ok])
    return math.sqrt(best * worst)
