"""The four workloads: how each builds its inputs from the seed, runs one
operation, and checks what the program returned.

Every workload is a closed loop with one caller. One round runs the seeded
operation list once, in order; the timed phase repeats whole rounds.

Inputs that cost very different amounts (a cold ``detects`` call at size 18
costs from 0.2 to 77 ms) are drawn from ``data/pools.json``: each stratum of
the pool, sorted by cost (a count of function calls), is split into tiers of
equal weight, where a candidate weighs half its share of the stratum's cost
plus half its share of the count, and the seed picks one candidate per tier.
Every seed therefore gives other inputs with nearly the same total cost (the
cost share) and the same latency quantiles (the count share), which keeps
run-to-run spread small.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

from checkers import (conjugate, contains, dimension_identity_problem, lr_tableau_problem,
                      nl_triple_sum, partition_count, partitions)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def load_pools() -> dict:
    with open(HERE / "data" / "pools.json") as fh:
        return json.load(fh)


def cost_tiers(rows: list, k: int) -> list[list]:
    """Split cost-sorted ``rows`` (cost last) into at most ``k`` tiers of
    equal weight: half cost share, half count share."""
    total = sum(r[-1] for r in rows)
    tiers: list[list] = [[] for _ in range(k)]
    acc = 0.0
    for row in rows:
        tiers[min(k - 1, int(k * acc))].append(row)
        acc += 0.5 * row[-1] / total + 0.5 / len(rows)
    return [t for t in tiers if t]


def draw(rng: random.Random, rows: list, k: int) -> list:
    """One candidate from each tier."""
    return [rng.choice(tier) for tier in cost_tiers(rows, k)]


def text(p) -> str:
    return ",".join(map(str, p))


def parse_text(s: str) -> tuple[int, ...]:
    """Read the CLI's ``4^2,3,1`` form."""
    out: list[int] = []
    for term in filter(None, s.split(",")):
        value, _, count = term.partition("^")
        out += [int(value)] * int(count or 1)
    return tuple(out)


def full_rows(outer, inner, rows) -> list[list]:
    """Rows of skew boxes only, padded with None over the inner shape."""
    inner = list(inner) + [0] * (len(outer) - len(inner))
    return [[None] * inner[i] + list(r) for i, r in enumerate(rows)]


def families(p: tuple) -> set[str]:
    """Shape families that guarantee detection at even size."""
    found = set()
    if all(x % 2 == 0 for x in p):
        found.add("all-even")
    if len(p) % 2 == 0 and all(x % 2 for x in p) and len(set(p)) == len(p):
        found.add("distinct-odd")
    if p and all(x == 1 for x in p[1:]):
        found.add("hook")
    if p and len(set(p)) == 1:
        found.add("rectangle")
    return found


def witness_problem(lam: tuple, alpha: tuple, beta: tuple, gamma: tuple, certs: list) -> str | None:
    """Validate three certificates (full rows) against the shapes and
    contents a witness triangle (alpha, beta, gamma) for ``lam`` requires."""
    half = sum(lam) // 2
    if not sum(alpha) == sum(beta) == sum(gamma) == half:
        return f"witness of {lam} is not half-size"
    if len(certs) != 3:
        return f"{len(certs)} certificates for {lam}"
    expected = ((alpha, beta), (beta, gamma), (alpha, gamma))
    for (inner, cont), rows in zip(expected, certs):
        problem = lr_tableau_problem(lam, inner, cont, rows)
        if problem:
            return f"certificate of {lam} for inner {inner}, content {cont}: {problem}"
    return None


class Workload:
    """Base: subclasses set ``name`` and implement build, run and check.

    A library round has at least 100 operations, so that ten lie beyond the
    90th percentile. A run first makes ``warmup_rounds`` untimed rounds, then
    repeats rounds until its time is up, at least ``min_rounds`` and at most
    ``max_rounds`` (None: no limit) times."""

    name = ""
    warmup_rounds = 1
    min_rounds = 3
    max_rounds = None

    def build(self, seed: int, pools: dict) -> list:
        raise NotImplementedError

    def before_round(self, lib) -> None:
        pass

    def before_op(self, lib, op) -> None:
        pass

    def run(self, lib, op):
        raise NotImplementedError

    def failed(self, op, out) -> bool:
        return False

    def digest(self, op, out):
        return out

    def check(self, lib, ops: list, outs: list) -> list[str]:
        raise NotImplementedError


class LRKernel(Workload):
    """LR triples of combined size 20..36 from hill-climb paths in the pool
    (coefficients 0 to several hundred), one per tier and size;
    every second tier is also enumerated as tableaux. Six small triples of
    combined size 8..14 are added for the polynomial cross-check."""

    name = "lr-kernel"
    tiers = 20

    def build(self, seed, pools):
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for n, rows in sorted(pools["lr_kernel"].items(), key=lambda kv: int(kv[0])):
            for i, (lam, mu, nu, _) in enumerate(draw(rng, rows, self.tiers)):
                triple = (tuple(lam), tuple(mu), tuple(nu))
                ops.append(("lr",) + triple)
                if i % 2:
                    ops.append(("enum",) + triple)
        for n in (8, 8, 10, 10, 12, 14):
            # at most 3 rows each: the polynomial route's cost grows fast with rows
            a = rng.randrange(n // 3, n // 2 + 1)
            lam, mu = (rng.choice([p for p in partitions(m) if len(p) <= 3]) for m in (a, n - a))
            nu = rng.choice([p for p in partitions(n) if contains(lam, p) and contains(mu, p)])
            ops.append(("lr", lam, mu, nu))
        rng.shuffle(ops)
        return ops

    def run(self, lib, op):
        kind, lam, mu, nu = op
        if kind == "lr":
            return lib.lr_coefficient(lam, mu, nu)
        return lib.enumerate_lr_tableaux(lib.SkewShape(nu, lam), mu)

    def digest(self, op, out):
        return out if op[0] == "lr" else tuple(t.rows for t in out)

    def check(self, lib, ops, outs):
        from tensorcube.oracle import lr_via_polynomials
        problems = []
        counts = {op[1:]: out for op, out in zip(ops, outs) if op[0] == "lr" and out is not None}
        for (lam, mu, nu), c in counts.items():
            if lib.lr_coefficient(mu, lam, nu) != c:
                problems.append(f"c({lam},{mu};{nu}) = {c} changes when the factors swap")
            if lib.lr_coefficient(conjugate(lam), conjugate(mu), conjugate(nu)) != c:
                problems.append(f"c({lam},{mu};{nu}) = {c} differs on the conjugate triple")
            if sum(nu) <= 14 and lr_via_polynomials(lam, mu, nu) != c:
                problems.append(f"c({lam},{mu};{nu}) = {c} differs from the polynomial route")
        for op, out in zip(ops, outs):
            if op[0] != "enum" or out is None:
                continue
            _, lam, mu, nu = op
            rows = [full_rows(nu, lam, t.rows) for t in out]
            if len({repr(r) for r in rows}) != len(rows):
                problems.append(f"repeated tableaux for ({lam},{mu};{nu})")
            if len(rows) != counts.get((lam, mu, nu), len(rows)):
                problems.append(f"{len(rows)} tableaux for ({lam},{mu};{nu}), count says "
                                f"{counts[(lam, mu, nu)]}")
            for r in rows:
                problem = lr_tableau_problem(nu, lam, mu, r)
                if problem:
                    problems.append(f"tableau for ({lam},{mu};{nu}): {problem}")
                    break
        return problems


# tiers per even size, more where there are more weights. Sizes stop at 18:
# at 20 and 22 one call costs up to 300 ms and fills the memo with 10^5
# entries, and on a shared host the run-to-run spread of such rounds (33% for
# wall_s, 45% for op_p90_ms over ten seeds) exceeded every bound
DETECT_SIZES = range(10, 19, 2)
DETECT_TIERS = {10: 10, 12: 16, 14: 24, 16: 30, 18: 40}
# the rectangle, all-even and distinct-odd shapes are kept to size 14, below
# the median cost, so that they do not move the quantiles
FAMILY_SHAPES = {
    "odd-column rectangle": [(c,) * r for c in (3, 5, 7) for r in (2, 4) if 10 <= c * r <= 14],
    "armless column": [(1,) * n for n in DETECT_SIZES],
    "hook": [(1 + a,) + (1,) * (n - 1 - a) for n in DETECT_SIZES for a in range(1, n - 1)],
    "all-even": [tuple(2 * x for x in p) for m in range(5, 8) for p in partitions(m)],
    "distinct-odd": [p for n in range(10, 15, 2) for p in partitions(n)
                     if len(p) % 2 == 0 and all(x % 2 for x in p) and len(set(p)) == len(p)],
}


class DetectCold(Workload):
    """``detects`` with the memo cleared before every call, as one CLI
    ``detect`` per weight. Even sizes 10..18 come from the cost-tiered pool;
    one weight of each odd size 11..17, one of each size 4..8, and one shape
    of each covered family are drawn uniformly. Every weight is paired with
    its conjugate: the conjugate's ``detects`` runs in the check, untimed,
    because the two costs differ and timing both would double the spread."""

    name = "detect-cold"

    def build(self, seed, pools):
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for n in DETECT_SIZES:
            rows = pools["detect_even"][str(n)]
            ops += [tuple(lam) for lam, _ in draw(rng, rows, DETECT_TIERS[n])]
        ops += [rng.choice(list(partitions(n))) for n in list(range(11, 18, 2)) + [4, 5, 6, 7, 8]]
        ops += [rng.choice(shapes) for shapes in FAMILY_SHAPES.values()]
        rng.shuffle(ops)
        return ops

    def before_op(self, lib, op):
        lib.clear_cache()

    def run(self, lib, op):
        return lib.detects(op)

    def digest(self, op, out):
        w = out.witness
        if w is None:
            return out.multiplicity, out.detected, None
        return (out.multiplicity, out.detected,
                (w.alpha, w.beta, w.gamma, tuple(c.rows for c in w.certificates)))

    def check(self, lib, ops, outs):
        from tensorcube.oracle import lr_via_polynomials
        problems = []
        for lam, v in zip(ops, outs):
            if v is None:
                continue
            lib.clear_cache()
            if lib.detects(conjugate(lam)).multiplicity != v.multiplicity:
                problems.append(f"N{lam} = {v.multiplicity} differs from N of the conjugate")
            n = sum(lam)
            if n % 2 and (v.multiplicity or v.detected):
                problems.append(f"odd weight {lam} has N = {v.multiplicity}")
            if n % 2 == 0 and families(lam):
                w = v.witness
                if not v.detected or w is None:
                    problems.append(f"family weight {lam} is not detected with a witness")
                else:
                    certs = [full_rows(lam, c.shape.inner, c.rows) for c in w.certificates]
                    problem = witness_problem(lam, tuple(w.alpha), tuple(w.beta), tuple(w.gamma),
                                              certs)
                    if problem:
                        problems.append(problem)
            if v.detected != (v.multiplicity > 0):
                problems.append(f"verdict of {lam} disagrees with N = {v.multiplicity}")
            if n <= 8 and v.multiplicity != nl_triple_sum(lam, lam, lam, lr_via_polynomials):
                problems.append(f"N{lam} = {v.multiplicity} differs from the polynomial triple sum")
        return problems


# no stratum of stable products of combined size 15..20: their memo grows to
# 10^5 entries, and on a shared host the run-to-run spread of rounds with them
# (25 to 30% for wall_s and op_p50_ms over ten seeds) exceeded the bounds.
# Narrow tiers: the round's latencies are spread evenly on a log scale, so
# the median moves with the few inputs a seed draws near it
DECOMPOSE_TIERS = {"stable-small": 60, "stable-mid": 88, "unstable": 60}


def stable_rank(family: str, lam: tuple, mu: tuple) -> int:
    rank = max(len(lam) + len(mu), 1)
    if family == "D":
        rank = max(rank, max(len(lam), len(mu)) + 1)
        rank += rank % 2
    return rank


class DecomposeBCD(Workload):
    """``tensor_decompose`` across B, C and D with inputs of size at most
    10: cases drawn from three cost-tiered strata (stable products of
    combined size 2..8 and 9..14, and products below the stable rank), run
    from the smallest product up. The memo is
    cleared once per round and stays warm across the batch, as in a session
    that builds a table."""

    name = "decompose-bcd"

    def build(self, seed, pools):
        rng = random.Random(f"{self.name}:{seed}")
        rows = []
        for stratum, k in DECOMPOSE_TIERS.items():
            rows += draw(rng, pools["decompose"][stratum], k)
        # smallest products first, as a table is filled in; a shuffled order
        # makes the share of memo hits, and so the median, depend on the seed
        rows.sort(key=lambda r: (sum(r[0]) + sum(r[1]), r[-1]))
        return [(tuple(lam), tuple(mu), fam, rank) for lam, mu, fam, rank, _ in rows]

    def before_round(self, lib):
        lib.clear_cache()

    def run(self, lib, op):
        lam, mu, family, rank = op
        return lib.tensor_decompose(lam, mu, lib.GroupSpec(family, rank))

    def digest(self, op, out):
        return tuple(out.terms.items()), tuple(out.inadmissible.items()), out.stable

    def check(self, lib, ops, outs):
        problems = []
        for (lam, mu, family, rank), out in zip(ops, outs):
            if out is None:
                continue
            stable = len(lam) + len(mu) <= rank
            if out.stable != stable:
                problems.append(f"{family}{rank} {lam}x{mu}: stable flag {out.stable}")
            terms = {tuple(k): v for k, v in out.terms.items()}
            bad = {tuple(k): v for k, v in out.inadmissible.items()}
            if stable:
                problem = dimension_identity_problem(family, rank, lam, mu, terms, bad)
                if problem:
                    problems.append(f"{lam}x{mu}: {problem}")
                continue
            top = stable_rank(family, lam, mu)
            ref = lib.tensor_decompose(lam, mu, lib.GroupSpec(family, top))
            ref_terms = {tuple(k): v for k, v in ref.terms.items()}
            problem = dimension_identity_problem(family, top, lam, mu, ref_terms,
                                                 {tuple(k): v for k, v in ref.inadmissible.items()})
            if problem:
                problems.append(f"{lam}x{mu} at the stable rank: {problem}")
            want = {nu: m for nu, m in ref_terms.items() if len(nu) <= rank}
            want_bad = {}
            if family == "D":
                want_bad = {nu: m for nu, m in want.items() if len(nu) == rank}
                want = {nu: m for nu, m in want.items() if len(nu) < rank}
            if (terms, bad) != (want, want_bad):
                problems.append(f"{family}{rank} {lam}x{mu} differs from the stable-rank "
                                f"result filtered to rank {rank}")
        return problems


SWEEPS = (["verify", "odd", "--max-size", "13"], ["verify", "even", "--max-size", "12"])
BATCH = 7  # calls of each kind per round: 2 + 4 * 7 operations


class CLISweeps(Workload):
    """One fresh ``python -m tensorcube.cli`` process per invocation: the two
    sweeps with ``--jobs 2``, and a seeded batch of 7 small ``detect``,
    ``decompose``, ``nl --support`` and ``lr --certificates`` calls each, all
    in JSON. Only this workload pays for start-up, argument parsing and
    rendering."""

    name = "cli-sweeps"
    # five rounds of about 7 s in every run, so that each call's latency is
    # a median of five launches. One round of 102 calls, each run once, left
    # the 90th percentile to the slowest single launches: over ten seeds it
    # spread by 0.41. With 18 calls a round it fell on the `verify even`
    # sweep, whose two workers make it the least steady call: 0.29. With 30
    # it falls on the slowest small calls, below both sweeps
    warmup_rounds = 0
    min_rounds = max_rounds = 5

    def build(self, seed, pools):
        rng = random.Random(f"{self.name}:{seed}")
        ops = [argv + ["--jobs", "2", "--format", "json"] for argv in SWEEPS]
        shapes = [s for group in FAMILY_SHAPES.values() for s in group if sum(s) <= 12]
        for i in range(BATCH):
            if i % 2:
                lam = rng.choice(shapes)
            else:
                lam = rng.choice(list(partitions(rng.randrange(6, 13, 2))))
            ops.append(["detect", text(lam)])
            a, b = (rng.choice(list(partitions(rng.randrange(1, 5)))) for _ in "ab")
            family = rng.choice("BCD")
            ops.append(["decompose", text(a), text(b), "--family", family,
                        "--rank", str(stable_rank(family, a, b))])
            lam, mu = (rng.choice(list(partitions(rng.randrange(2, 7)))) for _ in "ab")
            size = rng.choice([s for s in range(1, 7) if (s + sum(lam) + sum(mu)) % 2 == 0])
            nu = rng.choice(list(partitions(size)))
            ops.append(["nl", text(lam), text(mu), text(nu), "--support"])
            n = rng.randrange(6, 13)
            lam, mu = rng.choice(list(partitions(n // 2))), rng.choice(list(partitions(n - n // 2)))
            nu = rng.choice([p for p in partitions(n) if contains(lam, p) and contains(mu, p)])
            ops.append(["lr", text(lam), text(mu), text(nu), "--certificates"])
        ops[2:] = [argv + ["--format", "json"] for argv in ops[2:]]
        return ops

    def run(self, lib, op):
        return lib.cli(op)

    def failed(self, op, out):
        return out[0] not in ((0, 1) if op[0] == "detect" else (0,))

    def check(self, lib, ops, outs):
        problems = []
        for argv, out in zip(ops, outs):
            if out is None:
                continue
            code, stdout = out
            try:
                docs = [json.loads(line) for line in stdout.splitlines()]
            except ValueError:
                problems.append(f"{' '.join(argv)}: output is not JSON lines")
                continue
            problem = _check_cli(argv, code, docs)
            if problem:
                problems.append(f"{' '.join(argv[:4])}: {problem}")
        return problems


def _cert_rows(cert: dict) -> tuple[tuple, tuple, list]:
    return parse_text(cert["outer"]), parse_text(cert["inner"]), cert["rows"]


def _check_cli(argv: list, code: int, docs: list) -> str | None:
    """What is wrong with one invocation's exit code and JSON documents."""
    command = argv[0]
    if command == "verify":
        *entries, last = docs
        summary = last["summary"]
        top = int(argv[argv.index("--max-size") + 1])
        sizes = range(1, top + 1, 2) if argv[1] == "odd" else range(0, top + 1, 2)
        expected = sum(partition_count(n) for n in sizes)
        if summary["checked"] != expected or len(entries) != expected:
            return f"checked {summary['checked']} weights, the pentagonal count is {expected}"
        if (code == 0) != (summary["failures"] == 0) or code:
            return f"exit code {code} with {summary['failures']} failures"
        for e in entries:
            lam = parse_text(e["lambda"])
            if argv[1] == "odd" and e["N"] != 0:
                return f"odd weight {lam} has N = {e['N']}"
            if argv[1] == "even" and families(lam):
                w = e.get("witness")
                if not e["detected"] or w is None:
                    return f"family weight {lam} is not detected with a witness"
                problem = _json_witness_problem(lam, w)
                if problem:
                    return problem
        return None
    doc = docs[0]
    if command == "detect":
        if code != (0 if doc["detected"] else 1):
            return f"exit code {code} for detected={doc['detected']}"
        if "witness" in doc:
            return _json_witness_problem(parse_text(doc["lambda"]), doc["witness"])
        return None
    if code:
        return f"exit code {code}"
    if command == "nl":
        total = sum(f[0] * f[1] * f[2] for f in (s["factors"] for s in doc["support"]))
        if total != doc["coefficient"]:
            return f"support sums to {total}, coefficient is {doc['coefficient']}"
    if command == "lr":
        certs = doc["certificates"]
        if len(certs) != doc["coefficient"]:
            return f"{len(certs)} certificates for coefficient {doc['coefficient']}"
        for cert in certs:
            problem = lr_tableau_problem(*_cert_rows(cert)[:2], parse_text(doc["mu"]), cert["rows"])
            if problem:
                return problem
    if command == "decompose" and doc["stable"]:
        group = doc["group"]
        terms = {parse_text(t["nu"]): t["mult"] for t in doc["terms"]}
        bad = {parse_text(t["nu"]): t["mult"] for t in doc["inadmissible"]}
        return dimension_identity_problem(group["family"], group["rank"], parse_text(doc["lambda"]),
                                          parse_text(doc["mu"]), terms, bad)
    return None


def _json_witness_problem(lam: tuple, w: dict) -> str | None:
    certs = []
    for cert in w["certificates"]:
        outer, inner, rows = _cert_rows(cert)
        if outer != lam:
            return f"certificate of {lam} has outer shape {outer}"
        certs.append(rows)
    alpha, beta, gamma = (parse_text(w[k]) for k in ("alpha", "beta", "gamma"))
    return witness_problem(lam, alpha, beta, gamma, certs)


WORKLOADS = {w.name: w for w in (LRKernel(), DetectCold(), DecomposeBCD(), CLISweeps())}


ALL_CPUS = frozenset(os.sched_getaffinity(0))


class ProcessCLI:
    """Runs each CLI invocation in a fresh interpreter. One with ``--jobs``
    gets every CPU for its workers; the others run, with this process while
    it waits, on one CPU. Launched that way, 392 small calls on a shared
    2-CPU host had a 90th-percentile latency of 303 to 312 ms per hundred;
    the same calls, interleaved, left to the scheduler, 330 to 402 ms.

    ``peak_kb`` is the largest peak resident set of those processes, read
    with ``wait4`` as each is reaped, so it counts the sweep workers the CLI
    waits for and leaves out this process."""

    def __init__(self):
        self.peak_kb = 0

    def __call__(self, argv: list) -> tuple[int, str]:
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        os.sched_setaffinity(0, ALL_CPUS if "--jobs" in argv else {min(ALL_CPUS)})
        try:
            proc = subprocess.Popen([sys.executable, "-m", "tensorcube.cli", *argv], cwd=ROOT,
                                    env=env, stdout=subprocess.PIPE, text=True)
            timer = threading.Timer(150, proc.kill)
            timer.start()
            try:
                with proc.stdout:
                    stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        finally:
            os.sched_setaffinity(0, ALL_CPUS)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return proc.returncode, stdout


def in_process_cli(main, clear_cache):
    """Run invocations through ``main`` in this process, one job each, with
    the memo cleared first as a fresh process would have it."""

    def call(argv: list) -> tuple[int, str]:
        argv = list(argv)
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = "1"
        clear_cache()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    return call
