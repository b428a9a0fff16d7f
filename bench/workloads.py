"""The benchmark's workloads: curated Cops systems and a fixed random slice.

Each workload is a list of items.  An item is one `prove_unc` call: a Cops
text, the method list and the timeout it runs with, and what the verdict
check knows about the answer.  The prover receives only the rendered Cops
text of an item; everything else stays on the benchmark's side.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

CORPUS = Path(__file__).resolve().parent / "corpus"

#: Timeout of every item that is not a deadline probe.  It is far above the
#: slowest such item (about 3 s), so that no verdict depends on timing.
TIMEOUT = 60.0

DEFAULT_METHODS = ("sno", "omega", "rr", "cp", "pcl", "scl", "wd", "rev+sc", "rev+dc")


@dataclass(frozen=True)
class System:
    answer: str  # the known UNC answer, "YES" or "NO"
    source: str
    why: str


#: Curated systems under `corpus/`, with hand-written known answers.
SYSTEMS = {
    "SEC32": System(
        "YES", "paper section 3.2; tests/test_acceptance.py criterion 1",
        "non-left-linear rules whose linearization is parallel- and strongly "
        "closed: pcl, scl and wd all succeed on it"),
    "SEC4": System(
        "YES", "paper section 4; tests/test_acceptance.py criterion 3",
        "the weight-decreasing example: wd succeeds after a rank-1 and a "
        "rank-2 search over ranked conversion sets"),
    "COPS_126": System(
        "YES", "Cops #126; tests/test_acceptance.py criterion 6",
        "a duplicating divergence rule: rr decides it, cp builds large "
        "conversion classes, and rev+dc overruns a short timeout"),
    "COPS_254": System(
        "YES", "Cops #254; tests/test_acceptance.py criterion 4",
        "completion adds f(h(c)) -> f(c) and succeeds in round 2"),
    "SEC5": System(
        "YES", "paper section 5; tests/test_acceptance.py criterion 5",
        "the rule-reversing example: only rev+dc proves it"),
    "AC": System(
        "YES", "ROADMAP open items, test system AC",
        "associativity and commutativity: wd explores large ranked conversion "
        "sets, sc completes it, dc runs until its timeout"),
    "AC_g": System(
        "YES", "ROADMAP open item 4 (wd ignores the deadline)",
        "AC plus g(x) -> g(g(x)), two direct-sum components; wd runs about "
        "1.4 s whatever its timeout"),
    "CL": System(
        "YES", "ROADMAP open items, test system CL",
        "combinatory logic S/K/I over ap is orthogonal, hence confluent; cp "
        "fills 2000-member conversion classes on it"),
    "fxx_escape": System(
        "NO", "ROADMAP open item 5",
        "f(x,x) and f(x,g(x)) meet only over the infinite term g(g(...)); "
        "forward completion misses the counterexample, reversed completion "
        "finds it"),
    "not_unc_constants": System(
        "NO", "scripts/run_worked_examples.py; tests/test_acceptance.py "
        "criterion 7", "the smallest disproof: a -> b, a -> c"),
    "not_unc_escape": System(
        "NO", "scripts/run_worked_examples.py; tests/test_acceptance.py "
        "criterion 7", "a disproof through a normal form that drops a variable"),
    "multistep_6": System(
        "NO", "ROADMAP open item 4 (the multistep blow-up family, n = 6)",
        "g(a,...,a) has 3^6 multistep reducts; development closure and "
        "bounded reducts dominate"),
    "multistep_8": System(
        "NO", "ROADMAP open item 4 (the multistep blow-up family, n = 8)",
        "as n = 6 with 3^8 multistep reducts; the heaviest completion items"),
}


@dataclass(frozen=True)
class Item:
    name: str
    text: str  # the Cops problem handed to the prover
    methods: tuple[str, ...]
    timeout: float
    answer: Optional[str]  # known answer, None on the random slice


def _curated(pairs, probes) -> list[Item]:
    """Items of (system, method) pairs at the common timeout, and deadline
    probes: (system, method, timeout) with a tiny timeout whose verdict is
    MAYBE at any timeout."""
    items = []
    for system, method in pairs:
        items.append(Item(f"{system}/{method}", (CORPUS / f"{system}.trs").read_text(),
                          (method,), TIMEOUT, SYSTEMS[system].answer))
    for system, method, timeout in probes:
        items.append(Item(f"{system}/{method}@{timeout:g}s",
                          (CORPUS / f"{system}.trs").read_text(), (method,),
                          timeout, SYSTEMS[system].answer))
    return items


def direct_criteria() -> list[Item]:
    """Single-method runs of the direct criteria on term-heavy systems.

    They reach the deep searches that the portfolio seldom gets to: the
    ranked conversion sets of wd and the capped conversion classes of cp.
    No item enters completion.
    """
    systems = ("AC", "AC_g", "CL", "COPS_126", "SEC4", "SEC32")
    methods = ("sno", "omega", "rr", "pcl", "scl", "wd", "cp")
    return _curated([(s, m) for s in systems for m in methods],
                    [("AC_g", "wd", 0.05), ("CL", "cp", 0.05)])


def completion_stress() -> list[Item]:
    """Single-method completion runs: critical pairs, development closure,
    bounded reducts and normal-form tests, never a conversion class.

    dc and rev+dc on AC run until their timeout, so AC enters only with sc,
    rev+sc and the dc probe.
    """
    systems = ("multistep_6", "multistep_8", "COPS_254", "SEC5", "fxx_escape",
               "not_unc_constants", "not_unc_escape")
    methods = ("sc", "dc", "rev+sc", "rev+dc")
    pairs = [(s, m) for s in systems for m in methods]
    pairs += [("AC", "sc"), ("AC", "rev+sc")]
    return _curated(pairs, [("COPS_126", "rev+dc", 1.0), ("AC", "dc", 1.0)])


# ---------------------------------------------------------------------------
# the random slice

#: The random slice is one fixed population; the seed only orders it.  A
#: slice drawn per seed does not give steady figures: its cost is carried by
#: a handful of systems on which cp or completion runs for seconds (two
#: fresh 300-system slices took 13.6 s and 27.9 s), and on some of them the
#: cost of cp depends on the order of its search (one system took 7 ms or
#: 464 ms depending on the names of its symbols or on the hash seed).
POPULATION_SEED = 1
POPULATION_SIZE = 200


def _random_term(rnd: random.Random, depth: int = 2):
    """The term shape of tests/conftest.py: f/2, g/1, a, b over x, y."""
    if depth == 0 or rnd.random() < 0.35:
        if rnd.random() < 0.5:
            return rnd.choice(("x", "y"))
        return (rnd.choice(("a", "b")), ())
    sym, arity = rnd.choice((("f", 2), ("g", 1), ("a", 0), ("b", 0)))
    return (sym, tuple(_random_term(rnd, depth - 1) for _ in range(arity)))


def _variables(t) -> set[str]:
    if isinstance(t, str):
        return {t}
    return set().union(*map(_variables, t[1]))


def _random_rule(rnd: random.Random):
    lhs = _random_term(rnd)
    while isinstance(lhs, str):
        lhs = _random_term(rnd)
    rhs = _random_term(rnd)
    if _variables(rhs) - _variables(lhs):
        rhs = ("b", ())
    return lhs, rhs


def population() -> list[list[tuple]]:
    rnd = random.Random(POPULATION_SEED)
    return [[_random_rule(rnd) for _ in range(rnd.randint(1, 3))]
            for _ in range(POPULATION_SIZE)]


def _render(t) -> str:
    if isinstance(t, str):
        return t
    sym, args = t
    return f"{sym}({','.join(map(_render, args))})" if args else sym


def random_portfolio() -> list[Item]:
    """The default portfolio on the random population.

    Most systems are decided in well under a millisecond by the overlap
    checks; the tail is cp and completion on a few systems.
    """
    items = []
    for k, rules in enumerate(population()):
        body = "\n".join(f"  {_render(l)} -> {_render(r)}" for l, r in rules)
        text = f"(VAR x y)\n(RULES\n{body}\n)\n"
        items.append(Item(f"random-{k:03d}", text, DEFAULT_METHODS, TIMEOUT, None))
    return items


#: Why each workload exists, and which layers it is meant to load.
WORKLOADS = {
    "random-portfolio": "default portfolio on small random systems: per-problem "
                        "overhead at p50, cp conversion classes in the tail",
    "direct-criteria": "single direct criteria on term-heavy systems: wd ranked "
                       "conversion sets and cp classes, never completion",
    "completion-stress": "single completion methods: critical pairs, multisteps "
                         "and bounded reducts, never a conversion class",
}


def build(workload: str) -> list[Item]:
    if workload == "random-portfolio":
        return random_portfolio()
    if workload == "direct-criteria":
        return direct_criteria()
    if workload == "completion-stress":
        return completion_stress()
    raise ValueError(f"unknown workload {workload!r}")
