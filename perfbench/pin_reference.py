"""Regenerate reference.json, the pinned analyze-large reports.

    PYTHONPATH=src python3 perfbench/pin_reference.py

Reports of the algebras without a closed form, computed by the current
program in constructor labelling and normalized like the benchmark's
check. Regenerate only on purpose: the file is what later commits are
compared against.
"""

import json

from efalg.structure import structure_report

from workloads import ALGEBRAS, REFERENCE_FILE, AnalyzeLarge, normalize_report


def main() -> None:
    names = sorted({n for sizes in AnalyzeLarge.SIZES.values() for n in sizes
                    if ALGEBRAS[n][1] is None})
    pinned = {}
    for name in names:
        alg = ALGEBRAS[name][0]()
        report = structure_report(alg).to_json_dict()
        pinned[name] = normalize_report(report, list(range(alg.order)))
    REFERENCE_FILE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
