"""Command-line entry point: read a script, run it, print one JSON document.

Exit status: 0 for a conclusive result, 2 when the result carries an
inconclusive flag (a truncated basis, an unstabilized dual space or
numeric-only roots), 1 on any error. Errors are reported as documents
with a stable "code" field rather than tracebacks.
"""

from __future__ import annotations

import argparse
import json
import sys

from .derivations import Derivation
from .dsl import Command, parse
from .errors import SynthkitError, UsageError
from .suites import SUITES, active_seed, run_suite
from .synthesis import biadditive_demo, solve_system, window_oracle


def _poly_doc(p) -> dict:
    return {
        "dim": p.dim,
        "terms": [
            {"monomial": list(a), "value": str(p.terms[a])}
            for a in sorted(p.terms)
        ],
    }


def _exponential_doc(c) -> list:
    return [str(v) for v in c.base]


def _approx_doc(a) -> dict:
    return {
        "approx": True,
        "certified": a.certified,
        "radius": str(a.radius),
        "coordinates": [
            {
                "re": str(r.re),
                "im": str(r.im),
                "radius": str(r.radius),
                "multiplicity": r.multiplicity,
                "certified": r.certified,
            }
            for r in a.coords
        ],
    }


def _run_solve(cmd: Command, opts) -> tuple:
    measures = list(cmd.args)
    sol = solve_system(measures, degbound=opts.degbound)
    doc = {
        "roots": [
            {
                "root": _exponential_doc(b.root),
                "multiplicity": b.multiplicity,
                "truncated": b.truncated,
                "basis": [_poly_doc(q) for q in b.polys],
            }
            for b in sol.bases
        ],
        "approximate_roots": [_approx_doc(a) for a in sol.approximate],
        "total_dimension": sol.total_dimension,
    }
    inconclusive = bool(sol.approximate) or any(b.truncated for b in sol.bases)
    if opts.window is not None:
        box = [(0, opts.window - 1)] * cmd.dim
        ws = window_oracle(measures, box)
        doc["window"] = {
            "box": [list(side) for side in box],
            "dimension": ws.dimension,
            "matches_exact_total": ws.dimension == sol.total_dimension,
        }
    doc["inconclusive"] = inconclusive
    return doc, 2 if inconclusive else 0


def _run_roots(cmd: Command, opts) -> tuple:
    handle = cmd.args[0]
    exact, approx = handle.zero_set()
    doc = {
        "exact": [_exponential_doc(c) for c in exact],
        "approximate": [_approx_doc(a) for a in approx],
        "inconclusive": bool(approx),
    }
    return doc, 2 if approx else 0


def _run_member(cmd: Command, opts) -> tuple:
    handle, L = cmd.args
    return {"member": handle.contains(L)}, 0


def _run_root_order(cmd: Command, opts) -> tuple:
    handle, c = cmd.args
    return {"order": handle.root_order(c), "root": _exponential_doc(c)}, 0


def _run_dual_space(cmd: Command, opts) -> tuple:
    handle, c = cmd.args
    basis = handle.local_dual_space(c, cutoff=opts.cutoff)
    doc = {
        "root": _exponential_doc(c),
        "cutoff": basis.cutoff,
        "dimension": basis.dimension,
        "stabilized": basis.stabilized,
        "root_in_zero_set": basis.root_in_zero_set,
        "basis": [_poly_doc(q) for q in basis.polys],
        "inconclusive": not basis.stabilized,
    }
    return doc, 0 if basis.stabilized else 2


def _run_apply_derivation(cmd: Command, opts) -> tuple:
    p, mu, c = cmd.args
    D = Derivation(p)
    value = D.apply(mu, c)
    return {"value": str(value), "order": D.order}, 0


def _run_verify(cmd: Command, opts) -> tuple:
    names = cmd.args or tuple(SUITES)
    seed = active_seed()
    results = [run_suite(name, seed=seed) for name in names]
    doc = {
        "seed": seed,
        "suites": [
            {
                "name": r.name,
                "trials": r.trials,
                "passed": r.passed,
                "failures": r.failures,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    return doc, 0 if doc["passed"] else 1


def _run_demo_rank(cmd: Command, opts) -> tuple:
    k = cmd.args[0]
    return {"k": k, "dimension": biadditive_demo(k)}, 0


_HANDLERS = {
    "solve": _run_solve,
    "roots": _run_roots,
    "member": _run_member,
    "root-order": _run_root_order,
    "dual-space": _run_dual_space,
    "apply-derivation": _run_apply_derivation,
    "verify": _run_verify,
    "demo-rank": _run_demo_rank,
}


def run(cmd: Command, opts) -> tuple:
    """Dispatch a Command; returns (document, exit_code)."""
    doc, code = _HANDLERS[cmd.verb](cmd, opts)
    doc["schema"] = 1
    doc["verb"] = cmd.verb
    doc["dim"] = cmd.dim
    return doc, code


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """Raise instead of printing usage text and exiting with status 2,
        which would read as an inconclusive result."""
        raise UsageError(message)


def _build_argparser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="synthkit",
        description="Run a synthkit script (assignments plus one command verb) "
        "read from --input or stdin, printing one JSON document.",
    )
    ap.add_argument("--dim", type=int, default=None, help="ambient dimension override")
    ap.add_argument("--degbound", type=int, default=None, help="degree bound for solve")
    ap.add_argument("--cutoff", type=int, default=None, help="dual-space degree cutoff")
    ap.add_argument(
        "--window", type=int, default=None, help="side length for the solve cross-check"
    )
    ap.add_argument("--format", choices=("json",), default="json")
    ap.add_argument("--input", default=None, metavar="FILE", help="script file (default stdin)")
    return ap


def main(argv=None) -> int:
    try:
        opts = _build_argparser().parse_args(argv)
        if opts.input is None:
            text = sys.stdin.read()
        else:
            with open(opts.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        cmd = parse(text, dim=opts.dim)
        doc, code = run(cmd, opts)
    except SynthkitError as exc:
        doc = {"schema": 1, "error": {"code": exc.code, "message": exc.message}}
        code = 1
    except (ValueError, ZeroDivisionError, KeyError) as exc:
        doc = {"schema": 1, "error": {"code": "invalid-value", "message": str(exc)}}
        code = 1
    except OSError as exc:
        doc = {"schema": 1, "error": {"code": "io-error", "message": str(exc)}}
        code = 1
    except Exception as exc:  # a broken postcondition or exhausted memory
        message = f"{type(exc).__name__}: {exc}"
        doc = {"schema": 1, "error": {"code": "internal-error", "message": message}}
        code = 1
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
