"""In-memory spans around the calls into each efalg module, and their self times.

Spans are recorded from the benchmark's own files only: the workloads open
spans around the calls they make themselves, and for the traced run
`Tracer.install` swaps the module-level names through which efalg modules
call each other (for example `efalg.catalog.canonical_algebra`) for timing
wrappers. No efalg source file is edited; `Tracer.uninstall` restores every
name. Untraced runs use `NULL_TRACER`, whose spans cost one call each.

Order dependence: efalg memoizes derived data per algebra value in
process-global caches, so the first caller of a memoized function pays for
it and later callers read the cache. A layer's self time therefore depends
on which layer asks first. The workloads call the program in the order the
program's own commands do (for `analyze`: parse, `structure_report`, then
`verify_roundtrip`), and `core.derived` is probed first on every fresh
algebra, so the numbers describe that order.

Spans use the CPU clock of timing.py.
"""

from __future__ import annotations

import contextlib
import functools
import importlib

from timing import clock

# module -> {imported name: span name}. Span names are "<layer>.<part>".
# Only names the calling module resolves at call time are listed; a name
# bound inside a function body would not see the wrapper.
STRUCTURE_GROUPS = {
    "homogeneity_counterexample": "structure.homogeneity",
    "is_homogeneous": "structure.homogeneity",
    "rdp_counterexample": "structure.rdp",
    "has_rdp": "structure.rdp",
    "lattice_counterexample": "structure.lattice",
    "is_lattice": "structure.lattice",
    "sharp_bounds": "structure.bounds",
    "element_order": "structure.bounds",
    "is_sharply_dominating": "structure.bounds",
    "is_archimedean": "structure.bounds",
    "sharp_elements": "structure.sets",
    "meager_elements": "structure.sets",
    "hypermeager_elements": "structure.sets",
    "central_elements": "structure.center",
    "principal_elements": "structure.center",
    "blocks": "structure.blocks",
}
TRIPLE_GROUPS = {
    "extract_triple": "triple.extract",
    "reconstruct_tea": "triple.reconstruct",
    "verify_roundtrip": "triple.roundtrip",
}


def _names_in(module: str, groups: dict[str, str]) -> dict[str, str]:
    mod = importlib.import_module(module)
    return {name: span for name, span in groups.items() if hasattr(mod, name)}


def wrap_plan() -> dict[str, dict[str, str]]:
    """Which module-level names the traced run wraps, and the span each opens."""
    verify = {"verify_effect_algebra": "core.verify", "verify_generalized": "core.verify"}
    return {
        # constructor validation looks these up in efalg.core at call time
        "efalg.core": verify,
        "efalg.fileformat": {"serialize": "fileformat.serialize"},
        "efalg.structure": _names_in("efalg.structure", STRUCTURE_GROUPS),
        "efalg.triple": {
            **_names_in("efalg.triple", STRUCTURE_GROUPS),
            "extract_triple": "triple.extract",
            "reconstruct_tea": "triple.reconstruct",
        },
        "efalg.iso": {
            "sharp_elements": "structure.sets",
            "element_order": "structure.bounds",
            "canonical_algebra": "iso.canonical_algebra",
        },
        "efalg.catalog": {
            "verify_effect_algebra": "core.verify",
            "canonical_algebra": "iso.canonical_algebra",
            "canonical_form": "iso.canonical_form",
        },
        "efalg.properties": {
            **_names_in("efalg.properties", STRUCTURE_GROUPS),
            **_names_in("efalg.properties", TRIPLE_GROUPS),
            "find_isomorphism": "iso.find",
        },
    }


class NullTracer:
    """Tracer interface with no recording; used for untraced samples."""

    item = None
    recording = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return contextlib.nullcontext()


NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Records spans as [name, start, end, parent index, item id, error type]."""

    recording = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.item = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, 0.0, 0.0, parent, self.item, None]
        self.spans.append(rec)
        rec[1] = clock()
        return rec

    def _close(self, rec: list, exc: BaseException | None) -> None:
        rec[2] = clock()
        if exc is not None:
            rec[5] = type(exc).__name__
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        rec = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(rec, exc)
            raise
        self._close(rec, None)
        return result

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        except BaseException as exc:
            self._close(rec, exc)
            raise
        self._close(rec, None)

    def install(self) -> None:
        for module_name, names in wrap_plan().items():
            module = importlib.import_module(module_name)
            for attr, span_name in names.items():
                original = getattr(module, attr)
                setattr(module, attr, self._wrapper(span_name, original))
                self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrapper(self, span_name, original):
        call = self.call

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return call(span_name, original, *args, **kwargs)

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _metric(span_name: str) -> str:
    if span_name.startswith("iso.canonical"):
        return "iso.canonical_s"
    if span_name.startswith("catalog."):
        return "catalog.search_s"
    return span_name + "_s"


def layer_metrics(spans: list[list], run_s: float, anchors, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sample.

    The `*_s` metrics named after a span are self times and, with
    `trace.residual_s` (timed-phase time outside every span), add up to
    `trace.run_s`. `catalog.leaf_verify_s` and `catalog.dedup_s` are
    inclusive times of spans opened directly by the enumerator, so they
    overlap `core.verify_s` and `iso.canonical_s`. `counts` carries the
    counters the workload computes from its own results.
    """
    names = [s[0] for s in spans]
    own = self_times(spans)
    out = {
        name: 0.0
        for name in (
            "core.verify_s", "core.derived_s", "fileformat.parse_s", "fileformat.serialize_s",
            *(f"structure.{g}_s" for g in (
                "homogeneity", "rdp", "lattice", "bounds", "sets", "center", "blocks", "report")),
            "triple.extract_s", "triple.reconstruct_s", "triple.roundtrip_s",
            "iso.canonical_s", "iso.find_s", "catalog.search_s",
            *(f"properties.{a}_s" for a in anchors),
        )
    }
    for name, t in zip(names, own):
        key = _metric(name)
        if key not in out:
            raise KeyError(f"span {name!r} has no layer metric")
        out[key] += t

    def parent_name(s):
        return names[s[3]] if s[3] >= 0 else ""

    canon = [s for s in spans if s[0].startswith("iso.canonical")
             and not parent_name(s).startswith("iso.canonical")]
    by_enumerator = [s for s in spans if parent_name(s) == "catalog.search"]
    leaves = sum(1 for s in by_enumerator if s[0] == "iso.canonical_algebra")
    out.update({
        "core.verify_calls": names.count("core.verify"),
        "iso.canonical_calls": len(canon),
        "iso.canonical_refusals": sum(1 for s in canon if s[5] == "RuntimeError"),
        "iso.find_calls": names.count("iso.find"),
        "catalog.leaf_verify_s": sum(s[2] - s[1] for s in by_enumerator if s[0] == "core.verify"),
        "catalog.dedup_s": sum(
            s[2] - s[1] for s in by_enumerator if s[0].startswith("iso.canonical")),
        "catalog.leaves": leaves,
        "catalog.classes": counts.get("catalog.classes", 0),
        "catalog.unique_ratio": counts.get("catalog.classes", 0) / leaves if leaves else 0.0,
        "properties.checks": counts.get("properties.checks", 0),
        "properties.failures": counts.get("properties.failures", 0),
        "trace.run_s": run_s,
        "trace.residual_s": run_s - sum(own),
    })
    return out
