"""Command line interface.

Exit codes: 0 success, 1 usage or input error, 2 domain failure (a graph
that is not split, or a failed structural check).
"""

from __future__ import annotations

import argparse
import os
import sys

from .corpus import CorpusSpec
from .extremal import build_extremal, verify_extremal
from .factor import build_by_formula, format_multiplicity_listing, to_dot
from .graph import (
    GraphError,
    SplitGraph,
    format_split_text,
    parse_edge_list,
    parse_split_text,
    recognize_split,
)
from .switches import enumerate_two_switches
from .verify import sweep, verify_all

THREADS_ENV = "SPLITFACTOR_THREADS"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for domain
    # failures here, so usage problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="splitfactor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", parents=[], help="print the factor multigraph of a split graph")
    p.add_argument("file", help="split graph in the text format")
    p.add_argument("--dot", action="store_true", help="also emit DOT")

    p = sub.add_parser("verify", help="run every structural check on one graph")
    p.add_argument("file")

    p = sub.add_parser("moves", help="list all 2-switches, one 'u x v y' per line")
    p.add_argument("file")

    p = sub.add_parser("recognize", help="find a split partition of an edge-list graph")
    p.add_argument("file", help="edge list; optional 'V:' header declares isolated vertices")

    p = sub.add_parser("extremal", help="emit the n-th diameter-extremal graph")
    p.add_argument("n", type=int)
    p.add_argument("--dot", action="store_true", help="also emit the factor graph as DOT")

    p = sub.add_parser("sweep", help="verify a whole corpus")
    p.add_argument("--kmax", type=int, required=True, metavar="K")
    p.add_argument("--imax", type=int, required=True, metavar="I")
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--count", type=int, default=1000, help="instances in random mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None,
                   help=f"worker processes, at most the usable cores (the default); capped by ${THREADS_ENV}")
    return parser


def _read(path: str) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark; one that
    cannot be read or decoded raises GraphError, so the command ends in one
    error line."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:
        reason = str(exc)
    raise GraphError(f"cannot read {path}: {reason}")


def _load(path: str) -> SplitGraph:
    return parse_split_text(_read(path))


def _resolve_workers(requested: int | None) -> int:
    if hasattr(os, "sched_getaffinity"):
        # the cores this process may run on; taskset or a cpuset can narrow them
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    # processes beyond the cores add forks and pickling, not speed
    workers = cores if requested is None else min(requested, cores)
    cap_text = os.environ.get(THREADS_ENV)
    if cap_text is not None:
        try:
            cap = int(cap_text)
        except ValueError:
            raise GraphError(f"{THREADS_ENV} must be an integer, got {cap_text!r}") from None
        workers = min(workers, cap)
    return max(1, workers)


def _cmd_phi(args) -> int:
    phi = build_by_formula(_load(args.file))
    sys.stdout.write(format_multiplicity_listing(phi))
    if args.dot:
        sys.stdout.write(to_dot(phi))
    return 0


def _cmd_verify(args) -> int:
    S = _load(args.file)
    report = verify_all(S, instance=args.file)
    print(f"instance: {report.instance}")
    for check in report.checks:
        print(check.line())
        if check.note:
            print(f"NOTE {check.name} {check.note}")
    bad = report.failures()
    print(f"summary: {len(report.checks)} checks, {len(bad)} failures")
    return 0 if not bad else 2


def _cmd_moves(args) -> int:
    for move in enumerate_two_switches(_load(args.file)):
        print(f"{move.u} {move.x} {move.v} {move.y}")
    return 0


def _cmd_recognize(args) -> int:
    vertices, edges = parse_edge_list(_read(args.file))
    S = recognize_split(edges, vertices)
    if S is None:
        print("NOT-SPLIT")
        return 2
    # the partition: the two header lines of S's split text
    print(*format_split_text(S).splitlines()[:2], sep="\n")
    return 0


def _cmd_extremal(args) -> int:
    inst = build_extremal(args.n)
    sys.stdout.write(format_split_text(inst.graph))
    if args.dot:
        sys.stdout.write(to_dot(build_by_formula(inst.graph)))
    bad = [c for c in verify_extremal(inst) if not c.passed]
    if bad:
        for check in bad:
            print(check.line(), file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args) -> int:
    spec = CorpusSpec(args.mode, args.kmax, args.imax, count=args.count, seed=args.seed)
    workers = _resolve_workers(args.workers)
    summary = sweep(spec, workers=workers)
    print(f"{summary.instances} instances, {summary.failures} failures")
    shown = 0
    for instance_id, failures in summary.failed:
        for check in failures:
            if shown == 50:
                print("... (more failures suppressed)")
                return 2
            print(f"{instance_id}: {check.line()}")
            shown += 1
    return 0 if summary.ok else 2


_HANDLERS = {
    "phi": _cmd_phi,
    "verify": _cmd_verify,
    "moves": _cmd_moves,
    "recognize": _cmd_recognize,
    "extremal": _cmd_extremal,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except GraphError as exc:
        print(f"splitfactor: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
