"""Command line surface.

Exit codes are a stable contract for CI: 0 all checks passed, 1 a property
or axiom check failed, 2 an operation's hypotheses were not met, 3 the
input was malformed, a usage error or an output that cannot be written.
``suite`` takes its worker count from ``--jobs`` (default 1), which must be
at least 1 and is capped at the CPU count; output bytes do not depend on it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

from .catalog import (
    HARD_BOUND,
    direct_product,
    enumerate_all,
    horizontal_sum,
    make_boolean,
    make_chain,
    named_catalog,
)
from .core import AxiomViolationError, MalformedTableError, verify_effect_algebra, verify_generalized
from .fileformat import (
    MAX_ORDER,
    ceiling_message,
    magic_line,
    parse,
    parse_raw,
    parse_raw_generalized,
    serialize,
    serialize_generalized,
)
from .iso import find_isomorphism
from .properties import run_suite
from .structure import HypothesisError, structure_report
from .triple import ReconstructionError, extract_triple, verify_roundtrip

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_HYPOTHESIS = 2
EXIT_INPUT = 3


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _load(path: str):
    """The algebra in the file at `path`. A refusal names the file and keeps
    its type, so an axiom failure still exits 1 and a malformed file 3."""
    text = _read(path)
    try:
        return parse(text)
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from exc
    return out


def cmd_verify(args) -> int:
    text = _read(args.file)
    if magic_line(text) == "gefa 1":
        table, zero, _ = parse_raw_generalized(text)
        verdict = verify_generalized(table, zero)
    else:
        table, zero, one, _ = parse_raw(text)
        verdict = verify_effect_algebra(table, zero, one)
    if verdict.ok:
        print(f"{args.file}: ok (order {table.order})")
        return EXIT_OK
    for violation in verdict.violations:
        print(f"{args.file}: violation {violation.describe()}")
    return EXIT_PROPERTY


def cmd_analyze(args) -> int:
    alg = _load(args.file)
    report = structure_report(alg)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    d = report.to_json_dict()
    print(f"order {d['order']}  zero {d['zero']}  one {d['one']}")
    for key in ("sharp", "meager", "hypermeager", "center", "principal"):
        print(f"{key}: {d[key]}")
    print(f"blocks: {d['blocks']}")
    for flag, value in d["flags"].items():
        mark = "yes" if value["value"] else f"no, witness {value['witness']}"
        print(f"{flag}: {mark}")
    return EXIT_OK


def cmd_triple(args) -> int:
    alg = _load(args.file)
    rep = extract_triple(alg)
    out = _out_dir(args.out)
    _write(out / "sharp.efa", serialize(rep.sharp))
    _write(out / "meager.gefa", serialize_generalized(rep.meager))
    h = {str(s): sorted(rep.h[s]) for s in rep.sharp.elements()}
    _write(out / "h.json", json.dumps(h, indent=2, sort_keys=True) + "\n")
    backmaps = {
        "sharp_to_source": list(rep.sharp_to_source or ()),
        "meager_to_source": list(rep.meager_to_source or ()),
    }
    _write(out / "backmaps.json", json.dumps(backmaps, indent=2, sort_keys=True) + "\n")
    print(f"wrote triple of {args.file} to {out}")
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    alg = _load(args.file)
    result = verify_roundtrip(alg)
    if result.ok:
        assert result.tea is not None and result.tea.phi is not None
        pairs = " ".join(
            f"{x}->{result.tea.carrier[k]}" for x, k in enumerate(result.tea.phi)
        )
        print(f"{args.file}: isomorphism {pairs}")
        return EXIT_OK
    print(f"{args.file}: roundtrip failed: {result.failure} witness {result.witness}")
    return EXIT_PROPERTY


def cmd_iso(args) -> int:
    a = _load(args.file1)
    b = _load(args.file2)
    witness = find_isomorphism(a, b)
    if witness is None:
        print("not isomorphic")
        return EXIT_PROPERTY
    print("isomorphic: " + " ".join(f"{x}->{y}" for x, y in enumerate(witness)))
    return EXIT_OK


def _within_ceiling(order: int) -> None:
    """Refuse, before it is built, an algebra that no command could read back."""
    if order > MAX_ORDER:
        raise ValueError(ceiling_message(order))


def cmd_gen(args) -> int:
    if args.kind == "chain":
        _within_ceiling(args.n + 1)
        alg = make_chain(args.n)
    elif args.kind == "boolean":
        alg = make_boolean(args.n)  # refuses more than 6 atoms (64 elements) itself
    elif args.kind == "hsum":
        summands = [_load(f) for f in args.files]
        # the summands share zero and one; their other elements stay apart
        _within_ceiling(sum(a.order - 2 for a in summands) + 2)
        alg = horizontal_sum(summands)
    else:
        if len(args.files) != 2:
            raise MalformedTableError("product needs exactly two operand files")
        a, b = (_load(f) for f in args.files)
        _within_ceiling(a.order * b.order)
        alg = direct_product(a, b)
    text = serialize(alg)
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    # an order past the bound is refused here, before the directory is made
    algebras = enumerate_all(args.max_order, bound=HARD_BOUND)
    out = _out_dir(args.out)
    counts: dict[int, int] = {}
    for alg in algebras:
        k = counts.get(alg.order, 0)
        counts[alg.order] = k + 1
        _write(out / f"order{alg.order}_{k:03d}.efa", serialize(alg))
    for order in sorted(counts):
        print(f"order {order}: {counts[order]} algebras")
    return EXIT_OK


def cmd_suite(args) -> int:
    # an order past the bound is refused here, before any anchor runs
    classes = enumerate(enumerate_all(args.max_order, bound=HARD_BOUND))
    enumerated = ((f"enum-{alg.order}-{i:03d}", alg) for i, alg in classes)
    reports = run_suite(itertools.chain(named_catalog(), enumerated), jobs=args.jobs)
    width = max(len(r.anchor) for r in reports)
    failed = 0
    for r in reports:
        status = "PASS" if not r.failures else "FAIL"
        if r.failures:
            failed += 1
        print(f"{r.anchor:<{width}}  algebras {r.algebras:4d}  checks {r.checked:7d}  {status}")
        for name, witness in r.failures[:3]:
            print(f"{'':<{width}}  failure in {name}: {witness}")
        for note in r.notes:
            print(f"{'':<{width}}  note: {note}")
    print(f"anchors: {len(reports)}, failing: {failed}")
    return EXIT_OK if failed == 0 else EXIT_PROPERTY


def _worker_count(text: str) -> int:
    """A ``--jobs`` value: an integer of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: exit 3, where argparse exits 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="efalg", description="finite effect algebra toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the axioms of an algebra file (efa or gefa)")
    p.add_argument("file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("analyze", help="compute the structure report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("triple", help="extract the sharp/meager/h triple")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_triple)

    p = sub.add_parser("roundtrip", help="rebuild from the triple and verify the isomorphism")
    p.add_argument("file")
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("iso", help="decide isomorphism of two algebra files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("gen", help="generate a named construction")
    p.add_argument("--kind", required=True, choices=["chain", "boolean", "hsum", "product"])
    p.add_argument("--n", type=int, help="size parameter for chain/boolean, required by them")
    p.add_argument("--files", nargs="*", default=[], help="operand files for hsum/product")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("enumerate", help="stream all algebras up to an order")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("suite", help="run every property check over the catalog and enumeration")
    p.add_argument("--max-order", type=int, default=6)
    p.add_argument("--jobs", type=_worker_count, default=1, help="workers, at least 1; default 1")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fn is cmd_gen:
        # chain and boolean read --n alone, hsum and product --files alone
        sized = args.kind in ("chain", "boolean")
        if sized and args.n is None:
            parser.error(f"--kind {args.kind} needs --n")
        if sized and args.files or not sized and args.n is not None:
            parser.error(f"--kind {args.kind} does not read {'--files' if sized else '--n'}")
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; keep the interpreter's exit flush silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    except ValueError as exc:
        if isinstance(exc, AxiomViolationError):
            print(f"error: input fails the algebra axioms: {exc}", file=sys.stderr)
            return EXIT_PROPERTY
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ReconstructionError as exc:
        print(f"error: internal consistency: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
