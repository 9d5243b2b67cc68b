"""Command-line entry points.

Exit codes: 0 on success, 1 when a requested validation fails or a transport
target is not reachable, 2 on malformed input.  Any other exception is a
fault in the package and propagates with its traceback.
"""
from __future__ import annotations

import argparse
import re
import sys

from . import serialize
from .enumeration import (
    enumerate_systems, enumerate_systems_fiberwise, normalize_class,
    system_label, system_poset,
)
from .fibrations import TargetNotAbove, cocartesian_transport
from .presentation import (
    NoSuchMap, UnsupportedBackend, chain_group, one_object_groupoid,
    trivial_point,
)
from .reps import arity_support, named_rep
from .serialize import SerializationError
from .sieves import fiber_systems
from .systems import (
    NotClosed, classify, join, multiplicative_hull, sparse_extract,
    validate_wic,
)


def _prime_power(m):
    for p in range(2, m + 1):
        if m % p == 0:
            n = 0
            while m % p == 0:
                m //= p
                n += 1
            if m != 1:
                return None
            return p, n
    return None


def _group_presentation(name):
    key = name.strip().lower()
    if key in ("pt", "point", "triv"):
        return trivial_point()
    if re.fullmatch(r"bg\d*", key):
        return one_object_groupoid(int(key[2:] or "2"))
    if not re.fullmatch(r"c\d+", key):
        raise SerializationError(f"unknown group {name!r}")
    pp = _prime_power(int(key[1:]))
    if pp is None:
        raise SerializationError(
            f"group {name!r} is not a cyclic group of prime power order")
    return chain_group(*pp)


def _write_or_print(text, out):
    """Write `text` to the file `out`, or to stdout without one."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SerializationError(
                f"cannot write {out}: {exc.strerror or exc}") from exc
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _write_system(W, out):
    """Write W's document: its exact sparse form when its sparse members
    describe it, else W as stored (generators and bound)."""
    _write_or_print(
        serialize.dumps(serialize.system_to_obj(sparse_extract(W)[0])), out)


def _load_system(path):
    return serialize.system_from_obj(serialize.load(path), validate=True)


def cmd_enumerate(args):
    if args.backend == "cpn":
        P = chain_group(args.p, args.n)
    elif args.backend == "point":
        P = trivial_point()
    else:    # "bg": argparse refuses any other backend
        P = one_object_groupoid(args.p)
    cls = normalize_class(getattr(args, "class"))
    # chains are assembled fiber by fiber unless --brute asks for the search
    if args.fiberwise or (args.backend == "cpn" and not args.brute):
        systems = enumerate_systems_fiberwise(P, cls)
    else:
        systems = enumerate_systems(P, cls)
    po = system_poset(systems)
    print(f"{len(systems)} {cls} systems over {P.key}, "
          f"{len(po.covers())} cover relations")
    if args.out:
        if args.out.endswith(".dot"):
            name = re.sub(r"\W+", "_", f"{cls}_{P.key}")
            text = po.to_dot(name)
        else:
            text = serialize.dumps(po.to_json_obj())
        _write_or_print(text, args.out)
    return 0


def cmd_validate(args):
    try:
        W = _load_system(args.system)
    except NotClosed as exc:
        print(f"not closed: {exc}")
        return 1
    checks = validate_wic(W)
    for name, (ok, witness) in checks.items():
        mark = "ok" if ok else "FAIL"
        extra = f"  [{witness}]" if (witness and not ok) else ""
        print(f"  {name:<28} {mark}{extra}")
    flags = classify(W)
    print("class: " + ", ".join(k for k, v in flags.items() if v))
    required = ("restriction-stable", "segal")
    bad = [n for n in required if not checks[n][0]]
    if bad:
        print(f"validation failed: {', '.join(bad)}")
        return 1
    return 0


def cmd_join(args):
    A = _load_system(args.a)
    B = _load_system(args.b)
    _write_system(join(A, B), args.out)
    return 0


def cmd_fiber(args):
    R = serialize.transfer_from_obj(serialize.load(args.R))
    P, fam = serialize.family_from_obj(serialize.load(args.family))
    if R.P.key != P.key:
        raise SerializationError("transfer system and family live over "
                                 f"different presentations ({R.P.key} vs {P.key})")
    systems = fiber_systems(R, fam)
    print(f"{len(systems)} systems over this (transfer, family) pair")
    for W in systems:
        print(f"  {system_label(W)}")
    if args.out:
        text = serialize.dumps([serialize.system_to_obj(W) for W in systems])
        _write_or_print(text, args.out)
    return 0


def cmd_transport(args):
    W = _load_system(args.system)
    target_obj = serialize.load(args.to)
    if args.map in ("color", "unit", "fold"):
        _, target = serialize.family_from_obj(target_obj)
    elif args.map == "transfer":
        target = serialize.transfer_from_obj(target_obj)
    else:    # "transfer-fold": argparse refuses any other map
        if not isinstance(target_obj, dict) or "family" not in target_obj:
            raise SerializationError(
                "transfer-fold target needs 'transfer' and 'family' fields")
        spec = target_obj.get("presentation")
        R = serialize.transfer_from_obj(
            {"kind": "transfer", "presentation": spec,
             "pairs": target_obj.get("transfer", [])})
        _, fam = serialize.family_from_obj(
            {"kind": "family", "presentation": spec,
             "members": target_obj["family"]})
        target = (R, fam)
    try:
        result = cocartesian_transport(args.map, W, target)
    except TargetNotAbove as exc:
        print(f"target not above the current value: {exc}")
        return 1
    _write_system(result, args.out)
    return 0


def cmd_rep(args):
    P = _group_presentation(args.group)
    rep = named_rep(P, args.name)
    W = arity_support(rep)
    dims = ", ".join(f"{V}:{rep.fixed_dims[V]}" for V in P.orbit_classes)
    print(f"{args.name} over {P.key}: fixed dimensions {dims}")
    flags = classify(W)
    print("arity support class: " + ", ".join(k for k, v in flags.items() if v))
    _write_system(W, args.out)
    return 0


def cmd_hull(args):
    W = _load_system(args.system)
    H = multiplicative_hull(W, component_bound=args.component_bound)
    flags = classify(H)
    print("hull class: " + ", ".join(k for k, v in flags.items() if v))
    _write_system(H, args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="windex",
        description="weak indexing systems over orbital presentations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate systems of a class")
    p.add_argument("--backend", default="cpn", choices=["cpn", "point", "bg"])
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--class", default="aE-unital")
    how = p.add_mutually_exclusive_group()
    how.add_argument("--fiberwise", action="store_true",
                     help="assemble fiber by fiber (the default on cpn)")
    how.add_argument("--brute", action="store_true",
                     help="search level by level, on cpn too")
    p.add_argument("--out")
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("validate", help="check the axioms on a system file")
    p.add_argument("system")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("join", help="join two systems")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out")
    p.set_defaults(run=cmd_join)

    p = sub.add_parser("fiber", help="systems over a (transfer, family) pair")
    p.add_argument("--R", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--out")
    p.set_defaults(run=cmd_fiber)

    p = sub.add_parser("transport", help="push a system to a larger invariant")
    p.add_argument("--map", required=True,
                   choices=["color", "unit", "fold", "transfer", "transfer-fold"])
    p.add_argument("--to", required=True)
    p.add_argument("system")
    p.add_argument("--out")
    p.set_defaults(run=cmd_transport)

    p = sub.add_parser("rep", help="arity support of a named representation")
    p.add_argument("--name", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--out")
    p.set_defaults(run=cmd_rep)

    p = sub.add_parser("hull", help="multiplicative hull of a system")
    p.add_argument("system")
    p.add_argument("--component-bound", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(run=cmd_hull)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except NotClosed as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, UnsupportedBackend, NoSuchMap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
