"""Command-line front end: one verb per library operation.

Every verb is one entry of the verb table `VERBS`: its command path, its
arguments and the function it runs on the parsed arguments.
`build_parser` makes one subparser per entry, and `main` runs the chosen
function and prints its result in one place.  A function returns either
a library object, printed through `to_json()` or `str()`, or an `Output`
with an explicit payload, text and exit code.

Vectors, basis elements and graded elements are passed as JSON (the same
shapes the library serializes); sets and rings as spec strings.  Output
is text by default, JSON with --format json.  Exit codes: 0 success,
1 domain error (the error name is printed verbatim), 2 usage error
(including a JSON argument that does not parse, printed as BadJson).

Environment: WITTKIT_CACHE overrides the universal-polynomial cache
path, WITTKIT_CEILING the weight ceiling.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any, Callable, NamedTuple

from . import drwz, laws, ptypical, series, universal, wittint
from .errors import WittkitError
from .rings import element_from_json, parse_ring
from .truncation import parse_truncation_set
from .universal import PolySource
from .witt import (
    delta,
    from_ghost,
    frobenius,
    ghost,
    ghost_from_json,
    restrict,
    teichmuller,
    verschiebung,
    witt_add,
    witt_from_json,
    witt_mul,
    witt_neg,
)


class BadJson(Exception):
    """A JSON argument that does not parse (exit 2)."""


class Output(NamedTuple):
    """A result printed as `payload` with --format json, else as `text`.

    A payload of None prints `text` in either format.
    """

    payload: Any
    text: str
    code: int = 0


def _json(arg: str):
    try:
        return json.loads(arg)
    except (ValueError, RecursionError) as exc:  # also an integer past the digit limit
        raise BadJson(exc) from exc


def _vector(arg: str):
    return witt_from_json(_json(arg))


def _basis(arg: str):
    return wittint.basis_from_json(_json(arg))


def _drw(arg: str):
    return drwz.drw_from_json(_json(arg))


# -- verbs with more than one library call -------------------------------------


def _witt_teich(a):
    ring = parse_ring(a.ring)
    return teichmuller(ring.from_json(_json(a.value)), parse_truncation_set(a.set), ring)


class _Components(dict):
    """The p-typical components of a vector by index, printed like a library object."""

    def to_json(self) -> dict:
        return {str(k): v.to_json() for k, v in self.items()}

    def __str__(self) -> str:
        return "\n".join(f"{k}: {v}" for k, v in sorted(self.items()))


def _ptypical_decompose(a) -> _Components:
    x = _vector(a.x)
    idems = ptypical.idempotents(x.tset, a.prime, x.ring)
    return _Components((k, ptypical.ptypical_projection(k, x, a.prime, e)) for k, e in idems.items())


def _ptypical_tau(a):
    iso = ptypical.tau_iso(a.prime, a.length)
    if a.value is not None:
        return iso.to_witt(a.value)
    payload = {str(k): iso.to_witt(k).to_json() for k in range(iso.modulus)}
    return Output(payload, "\n".join(f"{k} -> {iso.to_witt(k)}" for k in range(iso.modulus)))


def _drwz_table(a) -> Output:
    tables = drwz.generator_tables(parse_truncation_set(a.set))
    lines = []
    for section, rows in tables.items():
        lines.append(f"[{section}]")
        lines += (f"  {k} = {rows[k]}" for k in sorted(rows))
    return Output(tables, "\n".join(lines))


def _laws_check(a) -> Output:
    S = parse_truncation_set(a.set)
    if a.suite == "wittcomplex":
        report = laws.check_witt_complex(S, trials=a.trials, seed=a.seed)
    elif a.suite == "comonad":
        T = parse_truncation_set(a.target) if a.target else S
        report = laws.check_comonad(S, T, parse_ring(a.base), trials=a.trials, seed=a.seed)
    else:
        report = laws.check_witt_ring(S, parse_ring(a.base), trials=a.trials, seed=a.seed)
    text = laws.report_to_json_text(report) if a.format == "json" else report.summary()
    return Output(None, text, 0 if report.passed else 1)


def _cache_warm(a) -> Output:
    source = PolySource(cache_path=a.cache or universal.default_cache_path())
    count = universal.warm_cache(a.up_to, source)
    return Output({"entries": count, "path": source.cache_path},
                  f"computed {count} polynomials -> {source.cache_path}")


# -- the verb table -------------------------------------------------------------


def _arg(*flags, **options):
    return flags, options


def _set(help=None):
    return _arg("--set", required=True, help=help)


FORMAT = _arg("--format", choices=("text", "json"), default="text")
STRATEGY = _arg("--strategy", default="auto", choices=("auto", "ghost", "lift", "universal"))
X, Y, N, TARGET = _arg("x"), _arg("y"), _arg("n", type=int), _arg("target")


class Verb(NamedTuple):
    """A command path, its arguments as (flags, options) pairs for
    `add_argument`, the function run on the parsed arguments, and the
    help line of a top-level verb."""

    path: tuple[str, ...]
    args: tuple
    run: Callable[[argparse.Namespace], Any]
    help: str | None = None


# Command groups: the subparser dest of each (named in usage errors) and its help.
GROUPS = {
    "witt": ("witt_op", "Witt vector arithmetic"),
    "basis": ("basis_op", "W_S(Z) in the V-basis"),
    "ptypical": ("pt_op", "idempotent decomposition and Z/p^n"),
    "drwz": ("drwz_op", "the graded complex over Z"),
    "laws": ("laws_op", "run a law suite"),
    "cache": ("cache_op", "universal polynomial cache"),
}

VERBS = (
    Verb(("witt", "add"), (X, Y, STRATEGY),
         lambda a: witt_add(_vector(a.x), _vector(a.y), strategy=a.strategy)),
    Verb(("witt", "mul"), (X, Y, STRATEGY),
         lambda a: witt_mul(_vector(a.x), _vector(a.y), strategy=a.strategy)),
    Verb(("witt", "neg"), (X, STRATEGY), lambda a: witt_neg(_vector(a.x), strategy=a.strategy)),
    Verb(("witt", "ghost"), (X,), lambda a: ghost(_vector(a.x))),
    Verb(("witt", "from-ghost"), (X,), lambda a: from_ghost(ghost_from_json(_json(a.x)))),
    Verb(("witt", "teich"),
         (_arg("value", help="JSON payload of a base-ring element"), _set(),
          _arg("--ring", default="Z")),
         _witt_teich),
    Verb(("witt", "frob"), (N, X, STRATEGY),
         lambda a: frobenius(a.n, _vector(a.x), strategy=a.strategy)),
    Verb(("witt", "versch"), (N, X, _set("target truncation set")),
         lambda a: verschiebung(a.n, _vector(a.x), parse_truncation_set(a.set))),
    Verb(("witt", "restrict"), (TARGET, X),
         lambda a: restrict(_vector(a.x), parse_truncation_set(a.target))),
    Verb(("basis", "teich"), (_arg("m", type=int), _set()),
         lambda a: wittint.teich_basis(a.m, parse_truncation_set(a.set))),
    Verb(("basis", "to"), (_arg("x", help="basis element JSON"),),
         lambda a: wittint.to_coords(_basis(a.x))),
    Verb(("basis", "from"), (_arg("x", help="Witt vector JSON over Z"),),
         lambda a: wittint.from_coords(_vector(a.x))),
    Verb(("delta",), (X, _arg("--target", required=True)),
         lambda a: delta(_vector(a.x), parse_truncation_set(a.target)),
         "comonad map into the nested Witt ring"),
    Verb(("gamma",), (X, _arg("--precision", type=int, required=True)),
         lambda a: series.gamma(_vector(a.x), a.precision), "Witt vector to power series"),
    Verb(("gamma-inv",),
         (_arg("series", help="series element JSON"), _arg("--length", type=int, required=True)),
         lambda a: series.gamma_inverse(element_from_json(_json(a.series)), a.length),
         "series (constant term 1) to Witt vector"),
    Verb(("ptypical", "decompose"), (X, _arg("--prime", type=int, required=True)),
         _ptypical_decompose),
    Verb(("ptypical", "tau"),
         (_arg("--prime", type=int, required=True), _arg("--length", type=int, required=True),
          _arg("--value", type=int)),
         _ptypical_tau),
    Verb(("drwz", "mul"), (X, Y), lambda a: drwz.drw_mul(_drw(a.x), _drw(a.y))),
    Verb(("drwz", "d"), (X,), lambda a: drwz.drw_d(_drw(a.x))),
    Verb(("drwz", "frob"), (N, X), lambda a: drwz.drw_frobenius(a.n, _drw(a.x))),
    Verb(("drwz", "versch"), (N, X, _set()),
         lambda a: drwz.drw_verschiebung(a.n, _drw(a.x), parse_truncation_set(a.set))),
    Verb(("drwz", "dlog"), (_set(),), lambda a: drwz.dlog_minus_one(parse_truncation_set(a.set))),
    Verb(("drwz", "eta"), (X,), lambda a: drwz.drw_eta(_basis(a.x))),
    Verb(("drwz", "restrict"), (TARGET, X),
         lambda a: drwz.drw_restrict(parse_truncation_set(a.target), _drw(a.x))),
    Verb(("drwz", "table"), (_set(),), _drwz_table),
    Verb(("laws", "check"),
         (_arg("--suite", required=True, choices=tuple(laws.SUITES)), _set(),
          _arg("--target", help="inner truncation set for the comonad suite"),
          _arg("--base", default="Z"), _arg("--trials", type=int, default=200),
          _arg("--seed", type=int, default=7),
          _arg("--json", dest="format", action="store_const", const="json", help="--format json")),
         _laws_check),
    Verb(("cache", "warm"),
         (_arg("--up-to", dest="up_to", type=int, required=True),
          _arg("--cache", help="cache file path override")),
         _cache_warm),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittkit",
        description="Exact arithmetic for big Witt vectors and the explicit "
        "de Rham-Witt complex of the integers.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for verb in VERBS:
        if len(verb.path) == 1:
            p = top.add_parser(verb.path[0], help=verb.help)
        else:
            group, name = verb.path
            if group not in groups:
                dest, group_help = GROUPS[group]
                g = top.add_parser(group, help=group_help)
                groups[group] = g.add_subparsers(dest=dest, required=True)
            p = groups[group].add_parser(name)
        for flags, options in (FORMAT, *verb.args):
            p.add_argument(*flags, **options)
        p.set_defaults(run=verb.run)
    return parser


def _print(out, fmt: str) -> int:
    """Print a result in full, flush it, and return its exit code.

    Exact results may hold integers past Python's int->str digit limit, so
    the limit is lifted while printing and restored after; every input was
    parsed under it.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if not isinstance(out, Output):
            out = Output(out.to_json(), str(out))
        if fmt == "json" and out.payload is not None:
            print(json.dumps(out.payload, indent=2, sort_keys=True))
        else:
            print(out.text)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return out.code
    finally:
        sys.set_int_max_str_digits(limit)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _print(args.run(args), args.format)
    except WittkitError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 1
    except BadJson as exc:
        print(f"BadJson: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`| head`): the flush at exit writes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
