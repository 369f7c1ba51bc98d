"""Inputs, timed phases and correctness checks of the three benchmark workloads.

Every input is built by efalg's constructors and then relabelled by a
permutation drawn from the workload seed, so the program never sees the
labelling its constructors produce. A workload is a class with three steps:
`__init__` builds the inputs and serializes them (set-up, timed by the
worker), `run` is the timed phase, which parses the inputs, calls the
program and stores what it returns (so constructor work on the inputs
counts in the timed phase), and
`check` compares those results with references computed by this file,
after the clock has stopped.

Why these workloads (see README.md for the measured baseline):
- analyze-large: a few large algebras; time goes to derived order data and
  the cubic classifiers in `structure`; the enumerator and the labelling
  search do no work.
- canon-symmetric: algebras with large automorphism groups; time goes to
  the labelling search in `iso`; `structure` is barely touched.
- sweep-7: many tiny algebras; the enumerator, the 36 suite anchors and
  per-call overhead dominate, not the kernels.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

from efalg.catalog import (
    direct_product,
    enumerate_all,
    horizontal_sum,
    make_boolean,
    make_chain,
    named_catalog,
    random_algebra,
)
from efalg.core import UNDEFINED, FiniteEffectAlgebra, PartialOpTable
from efalg.fileformat import parse, serialize
from efalg.iso import canonical_form, find_isomorphism
from efalg.properties import ANCHORS, run_suite
from efalg.structure import structure_report
from efalg.triple import verify_roundtrip

REFERENCE_FILE = Path(__file__).with_name("reference.json")


# ---------------------------------------------------------------------------
# inputs


def chain(n: int) -> FiniteEffectAlgebra:
    """The n-element chain."""
    return make_chain(n - 1)


def product(*algs: FiniteEffectAlgebra) -> FiniteEffectAlgebra:
    out = algs[0]
    for alg in algs[1:]:
        out = direct_product(out, alg)
    return out


# name -> (constructor call, closed form or None). Closed forms: ("chain", n) or
# ("boolean", atoms); the other algebras are checked against reference.json.
ALGEBRAS = {
    "boolean-8": (lambda: make_boolean(3), ("boolean", 3)),
    "boolean-16": (lambda: make_boolean(4), ("boolean", 4)),
    "boolean-32": (lambda: make_boolean(5), ("boolean", 5)),
    "boolean-64": (lambda: make_boolean(6), ("boolean", 6)),
    "chain-5": (lambda: chain(5), ("chain", 5)),
    "chain-8": (lambda: chain(8), ("chain", 8)),
    "chain-26": (lambda: chain(26), ("chain", 26)),
    "chain-31": (lambda: chain(31), ("chain", 31)),
    "chain-3x3": (lambda: product(chain(3), chain(3)), None),
    "chain-3x3x3": (lambda: product(chain(3), chain(3), chain(3)), None),
    "chain-4x4": (lambda: product(chain(4), chain(4)), None),
    "chain-4x4x4": (lambda: product(chain(4), chain(4), chain(4)), None),
    "chain-5x5": (lambda: product(chain(5), chain(5)), None),
    "boolean-4xchain-3": (lambda: product(make_boolean(2), chain(3)), None),
    "boolean-4xchain-6": (lambda: product(make_boolean(2), chain(6)), None),
    "hsum-3x3": (lambda: horizontal_sum([chain(3)] * 3), None),
    "hsum-8x3": (lambda: horizontal_sum([chain(3)] * 8), None),
    "hsum-6x3+4": (lambda: horizontal_sum([chain(3)] * 6 + [chain(4)]), None),
    "hsum-4x5": (lambda: horizontal_sum([chain(5)] * 4), None),
    "hsum-5x5": (lambda: horizontal_sum([chain(5)] * 5), None),
}


def relabel(alg: FiniteEffectAlgebra, rng: random.Random) -> tuple[FiniteEffectAlgebra, list[int]]:
    """A copy of alg with element x renamed perm[x], for a perm drawn from rng."""
    n = alg.order
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[UNDEFINED] * n for _ in range(n)]
    for i, row in enumerate(alg.table.entries):
        for j, v in enumerate(row):
            if v != UNDEFINED:
                rows[perm[i]][perm[j]] = perm[v]
    return FiniteEffectAlgebra(PartialOpTable.from_rows(rows), perm[alg.zero], perm[alg.one]), perm


def _rng(seed: int, workload: str) -> random.Random:
    # str seeds are hashed with sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# references


def closed_form(kind: str, size: int) -> dict:
    """Structure report of a chain or Boolean algebra in constructor labelling."""
    if kind == "chain":
        m = size - 1
        elems = list(range(size))
        sharp = [0, m]
        sets = {
            "sharp": sharp, "meager": elems[:-1],
            "hypermeager": [k for k in elems if 2 * k <= m],
            "center": sharp, "principal": sharp,
        }
        ords = [None] + [m // x for x in elems[1:]]
        below = [m if x == m else 0 for x in elems]
        above = [0 if x == 0 else m for x in elems]
        orthoalgebra = m == 1
    else:
        elems = list(range(1 << size))
        sets = {"sharp": elems, "meager": [0], "hypermeager": [0],
                "center": elems, "principal": elems}
        ords = [None] + [1] * (len(elems) - 1)
        below = above = elems
        orthoalgebra = True
    flags = dict.fromkeys(
        ("homogeneous", "rdp", "lattice", "sharply_dominating", "archimedean"), True)
    flags["orthoalgebra"] = orthoalgebra
    return {"order": len(elems), "zero": 0, "one": elems[-1], **sets,
            "blocks": [elems], "ord": ords, "below": below, "above": above, "flags": flags}


def normalize_report(d: dict, perm: list[int]) -> dict:
    """Map a report of the relabelled algebra back to constructor labels.

    Keeps sets, blocks, ord, sharp bounds and flag values; drops witnesses,
    which are the least counterexample in the relabelled scan order.
    """
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old

    def back(v):
        return None if v is None else inv[v]

    out = {"order": d["order"], "zero": back(d["zero"]), "one": back(d["one"])}
    for key in ("sharp", "meager", "hypermeager", "center", "principal"):
        out[key] = sorted(back(v) for v in d[key])
    out["blocks"] = sorted(sorted(back(v) for v in b) for b in d["blocks"])
    out["ord"] = [d["ord"][perm[x]] for x in range(len(perm))]
    for key in ("below", "above"):
        bound = d["sharp_bounds"][key]
        out[key] = [back(bound[perm[x]]) for x in range(len(perm))]
    out["flags"] = {k: f["value"] for k, f in d["flags"].items()}
    return out


def reference_report(name: str) -> dict:
    closed = ALGEBRAS[name][1]
    if closed is not None:
        return closed_form(*closed)
    return json.loads(REFERENCE_FILE.read_text())[name]


def is_isomorphism(a: FiniteEffectAlgebra, b: FiniteEffectAlgebra, w) -> bool:
    """Check a claimed witness as a morphism, independently of efalg.iso."""
    n = a.order
    if w is None or b.order != n or sorted(w) != list(range(n)):
        return False
    if w[a.zero] != b.zero or w[a.one] != b.one:
        return False
    ta, tb = a.table.entries, b.table.entries
    for x in range(n):
        for y in range(n):
            u, v = ta[x][y], tb[w[x]][w[y]]
            if (u == UNDEFINED) != (v == UNDEFINED) or (u != UNDEFINED and w[u] != v):
                return False
    return True


def order_profile(alg: FiniteEffectAlgebra) -> Counter:
    """Multiset of element orders (largest n with n.x defined), an iso invariant."""
    t = alg.table.entries
    out = Counter()
    for x in range(alg.order):
        if x == alg.zero:
            continue
        k, acc = 1, t[x][x]
        while acc != UNDEFINED:
            k, acc = k + 1, t[acc][x]
        out[k] += 1
    return out


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """`run` times its items with `timed_item`; `check` returns {operation: (kind, message)}.

    A failed operation is an exception ("error"), a documented refusal
    ("refused") or a wrong answer ("wrong"); only the last makes the
    sample incorrect.
    """

    def __init__(self):
        self.counts: dict[str, int] = {}

    @staticmethod
    def timed_item(watch, tracer, item_id, fn, *args):
        tracer.item = item_id
        with watch.stretch(item=True):
            try:
                return fn(*args)
            except Exception as exc:  # the program's failure is a measured outcome
                return exc


def probe_derived(tracer, alg) -> None:
    """First access to masks, ominus and supplements of a fresh algebra.

    Traced runs only: untraced, the program pays this inside its first call.
    """
    if not tracer.recording:
        return
    with tracer.span("core.derived"):
        alg.below_mask(alg.zero)
        alg.above_mask(alg.zero)
        alg.ominus(alg.one, alg.zero)
        alg.orthosupplement(alg.zero)


class AnalyzeLarge(Workload):
    """`efalg analyze --json` then `efalg roundtrip`, in process, per algebra."""

    name = "analyze-large"
    SIZES = {
        # chain-3x3x3 seven times (seven relabellings): one such item takes
        # 200-300 ms, varying with the labelling and the machine, so the
        # median of the fourteen items falls among several of them
        "full": ["boolean-32", "boolean-64", "chain-3x3x3", "chain-26", "chain-3x3x3",
                 "chain-31", "chain-3x3x3", "boolean-4xchain-6", "chain-3x3x3",
                 "chain-5x5", "chain-3x3x3", "hsum-5x5", "chain-3x3x3", "chain-3x3x3"],
        "smoke": ["boolean-8", "chain-5", "chain-3x3", "hsum-3x3"],
    }

    def __init__(self, seed: int, scale: str):
        super().__init__()
        rng = _rng(seed, self.name)
        self.inputs = []
        for name in self.SIZES[scale]:
            alg, perm = relabel(ALGEBRAS[name][0](), rng)
            self.inputs.append((name, serialize(alg), perm))
        self.results = []

    def _item(self, tracer, text):
        alg = tracer.call("fileformat.parse", parse, text)
        probe_derived(tracer, alg)
        report = tracer.call(
            "structure.report", lambda: structure_report(alg).to_json_dict())
        roundtrip = tracer.call("triple.roundtrip", verify_roundtrip, alg)
        return report, roundtrip.ok

    def run(self, tracer, watch) -> None:
        for k, (_name, text, _perm) in enumerate(self.inputs):
            self.results.append(self.timed_item(watch, tracer, k, self._item, tracer, text))

    @property
    def attempted(self) -> int:
        return len(self.inputs)

    def check(self) -> dict[str, tuple[str, str]]:
        failures = {}
        for k, ((name, _text, perm), result) in enumerate(zip(self.inputs, self.results)):
            op = f"#{k} {name}"
            if isinstance(result, Exception):
                failures[op] = ("error", f"{type(result).__name__}: {result}")
                continue
            report, roundtrip_ok = result
            if not roundtrip_ok:
                failures[op] = ("wrong", "roundtrip failed")
            elif normalize_report(report, perm) != reference_report(name):
                failures[op] = ("wrong", "report differs from the reference")
        return failures


class CanonSymmetric(Workload):
    """`canonical_form` on relabelled algebras and `find_isomorphism` on pairs."""

    name = "canon-symmetric"
    # (name,) is one canonical_form call on a fresh relabelling; (left, right)
    # is one find_isomorphism call, isomorphic exactly when the names agree.
    # Each item parses its inputs' text first.
    # chain-4x4 is relabelled 19 times: its calls take a few milliseconds,
    # so the median of the 40 call times falls among them, and they are
    # spread between the long calls (boolean-16 takes 11-13 s), so that
    # median samples the machine over the whole run, not one moment.
    # boolean-64 against a relabelled copy is left out: depending on the
    # labelling that one call takes 0.2 s or more than 3 minutes (README.md),
    # longer than a run may take. It meets a non-isomorphic partner instead.
    OPS = {
        "full": [
            ("boolean-8",), ("chain-4x4",), ("boolean-4xchain-3",), ("chain-4x4",),
            ("boolean-8", "chain-8"), ("chain-4x4",), ("boolean-32",), ("chain-4x4",),
            ("hsum-4x5", "hsum-4x5"), ("chain-4x4",), ("hsum-4x5",), ("chain-4x4",),
            ("boolean-16",),
            ("chain-4x4",), ("boolean-8",), ("chain-4x4",), ("chain-3x3x3",), ("chain-4x4",),
            ("boolean-16", "chain-4x4"), ("chain-4x4",), ("chain-3x3x3", "chain-3x3x3"),
            ("chain-4x4",), ("hsum-6x3+4",), ("chain-4x4",), ("hsum-8x3",),
            ("boolean-64", "chain-4x4x4"),
            ("boolean-16",),
            ("chain-4x4",), ("boolean-4xchain-3",), ("chain-4x4",),
            ("hsum-8x3", "hsum-6x3+4"), ("chain-4x4",), ("boolean-16", "boolean-16"),
            ("chain-4x4",), ("boolean-32", "boolean-32"), ("chain-4x4",), ("hsum-4x5",),
            ("chain-4x4",), ("hsum-8x3",), ("chain-4x4",),
        ],
        "smoke": [
            ("boolean-8",), ("hsum-3x3",), ("boolean-8", "boolean-8"), ("boolean-32",),
            ("chain-5",), ("chain-3x3", "chain-3x3"), ("chain-3x3x3",), ("boolean-8",),
            ("hsum-3x3", "chain-5"), ("hsum-3x3",),
        ],
    }

    def __init__(self, seed: int, scale: str):
        super().__init__()
        rng = _rng(seed, self.name)
        built = {}

        def fresh(name):
            if name not in built:
                built[name] = ALGEBRAS[name][0]()
            return serialize(relabel(built[name], rng)[0])

        self.ops = [(names, [fresh(n) for n in names]) for names in self.OPS[scale]]
        self.out = []  # per op: (parsed inputs, result) or the exception raised

    @property
    def attempted(self) -> int:
        return len(self.ops)

    def _call(self, tracer, texts):
        algs = [tracer.call("fileformat.parse", parse, text) for text in texts]
        for alg in algs:
            probe_derived(tracer, alg)
        if len(algs) == 1:
            return algs, tracer.call("iso.canonical_form", canonical_form, algs[0])
        return algs, tracer.call("iso.find", find_isomorphism, *algs)

    def run(self, tracer, watch) -> None:
        for k, (_names, texts) in enumerate(self.ops):
            self.out.append(self.timed_item(watch, tracer, k, self._call, tracer, texts))

    def check(self) -> dict[str, tuple[str, str]]:
        failures = {}
        forms_of: dict[str, set[bytes]] = {}
        names_of: dict[bytes, set[str]] = {}
        for (names, _texts), result in zip(self.ops, self.out):
            if len(names) == 1 and isinstance(result, tuple) and isinstance(result[1], bytes):
                forms_of.setdefault(names[0], set()).add(result[1])
                names_of.setdefault(result[1], set()).add(names[0])
        for k, ((names, _texts), result) in enumerate(zip(self.ops, self.out)):
            canonical = len(names) == 1
            op = f"#{k} {'canonical_form' if canonical else 'find_isomorphism'} {' '.join(names)}"
            if isinstance(result, Exception):
                kind = "refused" if canonical and isinstance(result, RuntimeError) else "error"
                failures[op] = (kind, f"{type(result).__name__}: {result}")
                continue
            algs, out = result
            if canonical and len(forms_of[names[0]]) > 1:
                problem = "relabellings of one algebra disagree"
            elif canonical and len(names_of[out]) > 1:
                problem = f"equal bytes for {sorted(names_of[out])}"
            elif canonical:
                continue
            elif names[0] == names[1]:
                problem = None if is_isomorphism(*algs, out) else "no valid witness"
            elif out is not None:
                problem = "witness for a non-isomorphic pair"
            elif order_profile(algs[0]) == order_profile(algs[1]):
                # the benchmark's own proof of non-isomorphism is missing
                problem = "pair is not provably non-isomorphic"
            else:
                problem = None
            if problem:
                failures[op] = ("wrong", problem)
        return failures


class Sweep7(Workload):
    """`efalg suite --max-order 7 --jobs 1` plus seeded `random_algebra` draws."""

    name = "sweep-7"
    CLASS_COUNTS = {2: 1, 3: 1, 4: 3, 5: 4, 6: 10, 7: 14}
    SIZES = {"full": (7, (5, 6, 7)), "smoke": (5, (4, 5))}
    DRAWS_PER_ORDER = 2

    def __init__(self, seed: int, scale: str):
        super().__init__()
        self.seed = seed
        self.rng = _rng(seed, self.name)
        self.max_order, self.draw_orders = self.SIZES[scale]
        self.catalog = [(f"catalog:{e.name}", serialize(relabel(e.algebra, self.rng)[0]))
                        for e in named_catalog()]
        self.universe = []
        self.classes: list | Exception = []
        self.draws = []
        self.suite_out = []

    def _draw(self, tracer, order, k):
        try:
            alg = random_algebra(self.seed * 1000 + order * 10 + k, order, bound=7)
            return tracer.call("iso.canonical_form", canonical_form, alg)
        except Exception as exc:  # the program's failure is a measured outcome
            return exc

    def _suite_item(self, tracer, name, alg):
        probe_derived(tracer, alg)
        if tracer.recording:
            # traced: the anchors run_suite would call, called directly
            return [(anchor, tracer.call(f"properties.{anchor}", fn, alg))
                    for anchor, fn in ANCHORS]
        reports = run_suite([(name, alg)], jobs=1)
        return [(r.anchor, r) for r in reports]

    def run(self, tracer, watch) -> None:
        with watch.stretch(), tracer.span("catalog.search"):
            try:
                self.classes = list(enumerate_all(self.max_order, bound=self.max_order))
            except Exception as exc:  # the program's failure is a measured outcome
                self.classes = exc
                return
        with watch.stretch(), tracer.span("catalog.draw"):
            for order in self.draw_orders:
                for k in range(self.DRAWS_PER_ORDER):
                    self.draws.append(self._draw(tracer, order, k))
        with watch.stretch():
            self.universe = [(name, tracer.call("fileformat.parse", parse, text))
                             for name, text in self.catalog]
            self.universe += [(f"enum:{i}", relabel(alg, self.rng)[0])
                              for i, alg in enumerate(self.classes)]
        for k, (name, alg) in enumerate(self.universe):
            self.suite_out.append(
                self.timed_item(watch, tracer, k, self._suite_item, tracer, name, alg))

    def check(self) -> dict[str, tuple[str, str]]:
        if isinstance(self.classes, Exception):
            return {"enumerate_all": ("error", f"{type(self.classes).__name__}: {self.classes}")}
        failures = {}
        got = dict(sorted(Counter(alg.order for alg in self.classes).items()))
        want = {n: c for n, c in self.CLASS_COUNTS.items() if n <= self.max_order}
        if got != want:
            failures["enumerate_all"] = ("wrong", f"class counts {got} != {want}")
        known = {canonical_form(alg) for alg in self.classes}
        for k, form in enumerate(self.draws):
            if isinstance(form, Exception):
                failures[f"random_algebra #{k}"] = ("error", f"{type(form).__name__}: {form}")
            elif form not in known:
                failures[f"random_algebra #{k}"] = ("wrong", "class not enumerated")
        checks = bad = 0
        for (name, _alg), out in zip(self.universe, self.suite_out):
            if isinstance(out, Exception):
                failures[f"suite {name}"] = ("error", f"{type(out).__name__}: {out}")
                continue
            fails = [a for a, r in out if r.failures]
            checks += sum(r.checked for _a, r in out)
            bad += sum(len(r.failures) for _a, r in out)
            if [a for a, _ in out] != [a for a, _ in ANCHORS]:
                failures[f"suite {name}"] = ("wrong", "anchors missing")
            elif fails:
                failures[f"suite {name}"] = ("wrong", f"failing anchors {fails}")
        self.counts = {"catalog.classes": len(self.classes),
                       "properties.checks": checks, "properties.failures": bad}
        return failures

    @property
    def attempted(self) -> int:
        # the enumeration, each draw, and each algebra's pass through the anchors
        if isinstance(self.classes, Exception):
            return 1
        return 1 + len(self.draws) + len(self.universe)


WORKLOADS = {cls.name: cls for cls in (AnalyzeLarge, CanonSymmetric, Sweep7)}
