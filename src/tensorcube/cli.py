"""Command line front end.

Commands: lr, nl, decompose, detect, verify, render. Formats: plain (text
lines), json (one document per run, JSON lines for sweeps), ascii-diagram
(plain plus box diagrams). Exit codes: 0 success or detected; 1 not detected
(detect only); 2 usage, parse or precondition errors; 3 arithmetic overflow;
4 internal invariant failure; 141 (128 + SIGPIPE) standard output closed
by its reader.

Diagrams are drawn up to a fixed number of cells: ``render`` of a larger
shape, other than in JSON, and ``lr --certificates`` with a larger upper
shape exit 2 instead of exhausting memory.

Environment: TENSORCUBE_COLOR=1 turns on ANSI color for plain verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .lr import checked, lr_coefficient
from .newell_littlewood import GroupSpec, _triangles, nl_coefficient, tensor_decompose
from .partitions import _is_decimal, contains, parse, render
from .tableaux import (SkewShape, _check_drawable, ascii_diagram, enumerate_lr_tableaux,
                       shape_diagram, tableau_json)

# detection is imported by the commands that run it, so that no other
# command pays for loading it at start-up

EXIT_OK = 0
EXIT_NOT_DETECTED = 1
EXIT_USAGE = 2
EXIT_OVERFLOW = 3
EXIT_INTERNAL = 4
# the status a shell shows for a process that SIGPIPE ended
EXIT_CLOSED_OUTPUT = 141


def _colorize(text: str, good: bool) -> str:
    if os.environ.get("TENSORCUBE_COLOR", "0") != "1":
        return text
    return f"\x1b[{'32' if good else '31'}m{text}\x1b[0m"


def _at_least(minimum: int):
    """An argparse type: a plain decimal count of at least ``minimum`` (0 or 1)."""
    def convert(text: str) -> int:
        if not _is_decimal(text.strip()) or int(text) < minimum:
            kind = "positive" if minimum else "non-negative"
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return int(text)
    return convert


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("plain", "json", "ascii-diagram"),
                        default="plain", help="output format")

    parser = argparse.ArgumentParser(
        prog="tensorcube",
        description="Exact tensor product combinatorics for the classical families")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lr", parents=[shared],
                       help="Littlewood-Richardson coefficient for three partitions")
    p.add_argument("lam", help="first lower partition, e.g. 3,2,1")
    p.add_argument("mu", help="second lower partition")
    p.add_argument("nu", help="upper partition")
    p.add_argument("--certificates", action="store_true",
                   help="also print every certifying tableau")

    p = sub.add_parser("nl", parents=[shared],
                       help="Newell-Littlewood coefficient for three partitions")
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--support", action="store_true",
                   help="list the contributing triangles with their factors")

    p = sub.add_parser("decompose", parents=[shared],
                       help="decompose a product of two irreducibles (exact only when "
                            "the input lengths sum to at most the rank: stable=true)")
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("--family", required=True, choices=("B", "C", "D"))
    p.add_argument("--rank", required=True, type=_at_least(1),
                   help="rank of the group (a positive integer; even for D)")

    p = sub.add_parser("detect", parents=[shared],
                       help="cube-detection verdict for one weight")
    p.add_argument("lam")

    p = sub.add_parser("verify", parents=[shared],
                       help="exhaustive verification sweeps")
    p.add_argument("theorem", choices=("odd", "even"),
                   help="odd: the stable constant N(lam,lam,lam) is 0 at every odd "
                        "size, which holds by parity; this is not the rank-n "
                        "question for SO(2n+1), where (1) is detected at SO(3). "
                        "even: every weight in a covered family has a validated "
                        "witness")
    p.add_argument("--max-size", type=_at_least(0), required=True,
                   help="largest weight size to sweep (a non-negative integer)")
    p.add_argument("--jobs", type=_at_least(1), default=1,
                   help="parallel workers for the even sweep (a positive integer); "
                        "the odd sweep searches nothing and runs serially")

    p = sub.add_parser("render", parents=[shared],
                       help="draw a Young or skew diagram")
    p.add_argument("outer")
    p.add_argument("--inner", default="", help="inner shape to remove")
    return parser


def _cmd_lr(args) -> int:
    lam, mu, nu = parse(args.lam), parse(args.mu), parse(args.nu)
    certs = None
    if args.certificates:
        # each certificate is drawn on nu's diagram, so one too large to draw
        # is refused before the search; nu/lam may not be a shape, and then
        # there is no certificate
        _check_drawable(nu)
        certs = enumerate_lr_tableaux(SkewShape(nu, lam), mu) if contains(lam, nu) else []
    # the certificates are the fillings the coefficient counts
    value = lr_coefficient(lam, mu, nu) if certs is None else checked(len(certs))
    if args.format == "json":
        doc = {"lambda": render(lam), "mu": render(mu), "nu": render(nu),
               "coefficient": value}
        if certs is not None:
            doc["certificates"] = [tableau_json(t) for t in certs]
        print(json.dumps(doc))
    else:
        print(value)
        if certs:
            for t in certs:
                print()
                print(ascii_diagram(t))
    return EXIT_OK


def _cmd_nl(args) -> int:
    lam, mu, nu = parse(args.lam), parse(args.mu), parse(args.nu)
    support = list(_triangles(lam, mu, nu)) if args.support else None
    value = (nl_coefficient(lam, mu, nu) if support is None
             else checked(sum(cab * cag * cbg for *_, cab, cag, cbg in support)))
    if args.format == "json":
        doc = {"lambda": render(lam), "mu": render(mu), "nu": render(nu),
               "coefficient": value}
        if support is not None:
            doc["support"] = [{"alpha": render(a), "beta": render(b), "gamma": render(g),
                               "factors": factors}
                              for a, b, g, *factors in support]
        print(json.dumps(doc))
    else:
        print(value)
        if support is not None:
            for a, b, g, cab, cag, cbg in support:
                print(f"alpha={render(a)} beta={render(b)} gamma={render(g)} "
                      f"factors={cab}*{cag}*{cbg}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    lam, mu = parse(args.lam), parse(args.mu)
    result = tensor_decompose(lam, mu, GroupSpec(args.family, args.rank))
    if args.format == "json":
        print(json.dumps(result.to_json()))
    else:
        for nu, mult in result.terms.items():
            print(f"nu={render(nu)} mult={mult}")
        for nu, mult in result.inadmissible.items():
            print(f"inadmissible nu={render(nu)} mult={mult}")
        print(f"stable={'true' if result.stable else 'false'}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    from . import detection
    verdict = detection.detects(parse(args.lam))
    families = sorted(f.describe() for f in verdict.families)
    if args.format == "json":
        doc = {"lambda": render(verdict.weight), "size": verdict.weight.size,
               "families": families, "N": verdict.multiplicity,
               "detected": verdict.detected}
        if verdict.witness is not None:
            doc["witness"] = verdict.witness.to_json()
        print(json.dumps(doc))
    else:
        print(f"lambda={render(verdict.weight)}")
        print(f"size={verdict.weight.size}")
        print(f"families={','.join(families)}")
        print(f"N={verdict.multiplicity}")
        flag = "true" if verdict.detected else "false"
        print("detected=" + _colorize(flag, verdict.detected))
        if verdict.witness is not None:
            w = verdict.witness
            print(f"witness.alpha={render(w.alpha)}")
            print(f"witness.beta={render(w.beta)}")
            print(f"witness.gamma={render(w.gamma)}")
            print(f"witness.path={w.path}")
            if args.format == "ascii-diagram":
                for cert in w.certificates:
                    print()
                    print(ascii_diagram(cert))
    return EXIT_OK if verdict.detected else EXIT_NOT_DETECTED


def _cmd_verify(args) -> int:
    from . import detection
    if args.theorem == "odd":
        report = detection.verify_odd_theorem(args.max_size, jobs=args.jobs)
    else:
        report = detection.verify_even_theorem(args.max_size, jobs=args.jobs)
    if args.format == "json":
        for entry in report.entries:
            print(json.dumps(entry))
        summary = {"theorem": report.theorem, "max_size": report.max_size,
                   "checked": report.checked, "failures": len(report.failures)}
        if report.theorem == "even":
            summary["family_tallies"] = report.family_tallies
        print(json.dumps({"summary": summary}))
    else:
        for entry in report.entries:
            status = "ok" if entry["ok"] else "FAIL"
            line = f"{status} lambda={entry['lambda']} size={entry['size']} N={entry['N']}"
            if entry.get("families"):
                line += f" families={','.join(entry['families'])}"
            print(line if entry["ok"] else _colorize(line, False))
        print(f"checked={report.checked} failures={len(report.failures)}")
        if report.theorem == "even":
            for kind, count in sorted(report.family_tallies.items()):
                print(f"tally {kind}={count}")
    return EXIT_OK if not report.failures else EXIT_INTERNAL


def _cmd_render(args) -> int:
    shape = SkewShape(parse(args.outer), parse(args.inner))
    if args.format == "json":
        print(json.dumps({"outer": render(shape.outer), "inner": render(shape.inner),
                          "boxes": shape.size}))
    else:
        print(shape_diagram(shape))
    return EXIT_OK


_HANDLERS = {
    "lr": _cmd_lr,
    "nl": _cmd_nl,
    "decompose": _cmd_decompose,
    "detect": _cmd_detect,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        # flushed here, so that a closed pipe is caught below and not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: point stdout at the null device so that the
        # flush at exit finds nothing to complain about
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_OUTPUT
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
