"""JSON round-tripping for presentations, V-sets, systems, and fibration data.

Every document embeds the presentation spec it lives over, so files are
self-contained; loaders rebuild the presentation (once per distinct spec in a
process) and check the document's shape, raising SerializationError on
anything malformed.  Documents are written as compact JSON with sorted keys.
"""
from __future__ import annotations

import functools
import json
import operator

from .presentation import build_presentation
from .systems import WeakIndexingSystem, _check_closed
from .fibrations import TransferSystem, is_family
from .sieves import Sieve
from .reps import RepDescriptor


class SerializationError(ValueError):
    pass


# what a malformed document makes the builders and `P.vset` raise; any other
# exception is a fault in the package and propagates
_MALFORMED = (ValueError, KeyError, TypeError, IndexError)


def _need(obj, key, kind):
    if not isinstance(obj, dict) or key not in obj:
        raise SerializationError(f"{kind} document needs a {key!r} field")
    return obj[key]


def _names(value, what):
    """A JSON list of names, else SerializationError."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SerializationError(f"{what} must be a list of names, not {value!r}")
    return value


def _name_pairs(value, what):
    """A JSON list of [name, name] pairs, as tuples, else SerializationError."""
    if not isinstance(value, list) or not all(
            isinstance(x, list) and len(x) == 2
            and all(isinstance(y, str) for y in x) for x in value):
        raise SerializationError(
            f"{what} must be a list of [name, name] pairs, not {value!r}")
    return [tuple(x) for x in value]


def _presentation_of(obj, kind):
    spec = _need(obj, "presentation", kind)
    try:
        return _presentation(json.dumps(spec, sort_keys=True))
    except _MALFORMED as exc:
        raise SerializationError(f"bad presentation spec: {exc}") from exc


@functools.lru_cache(maxsize=16)
def _presentation(text):
    """The presentation of a spec's canonical JSON text, built once: systems
    loaded from one spec share it (presentations compare by `key` and keep
    only lazy caches).  A bad spec raises, and nothing is cached."""
    return build_presentation(json.loads(text))


def vset_to_obj(S):
    return {"over": S.over, "orbits": [[k, m] for k, m in S.orbits]}


def vset_from_obj(P, obj):
    over = _need(obj, "over", "V-set")
    orbits = _need(obj, "orbits", "V-set")
    try:
        return P.vset(over, [(k, m) for k, m in orbits])
    except _MALFORMED as exc:
        raise SerializationError(f"bad V-set {obj!r}: {exc}") from exc


def _plain_entry(obj):
    """A V-set entry as a hashable key when its names are `str` and its
    multiplicities exactly `int`, else None.  Only such entries are looked
    up: 1, 1.0 and True hash alike, and `P.vset` refuses the last two, so
    any other entry is decoded by `vset_from_obj`."""
    if type(obj) is not dict or type(obj.get("over")) is not str \
            or type(obj.get("orbits")) is not list:
        return None
    pairs = []
    for pair in obj["orbits"]:
        if type(pair) is not list or len(pair) != 2 \
                or type(pair[0]) is not str or type(pair[1]) is not int:
            return None
        pairs.append((pair[0], pair[1]))
    return obj["over"], tuple(pairs)


def _read_vset(P, obj):
    """`vset_from_obj`, looked up among P's sparse V-sets first: each entry
    of a sparse level is one, so only an entry that is not plain or not
    sparse is decoded and checked."""
    key = _plain_entry(obj)
    S = None if key is None else P.sparse_vset(*key)
    return vset_from_obj(P, obj) if S is None else S


def system_to_obj(W):
    base = {"kind": "system", "presentation": W.P.spec}
    if W.label:
        base["label"] = W.label
    if W.form == "sparse":
        base["form"] = "sparse"
        by_orbits = operator.attrgetter("orbits")
        base["levels"] = {
            V: [vset_to_obj(S) for S in sorted(W.sparse_levels[V], key=by_orbits)]
            for V in W.P.orbit_classes}
    elif W.form == "generated":
        base["form"] = "generated"
        base["generators"] = [vset_to_obj(S) for S in W.gens]
        base["bound"] = W.bound
    else:
        raise SerializationError("predicate-backed systems cannot be serialized")
    return base


def system_from_obj(obj, validate=False):
    _check_kind(obj, "system")
    P = _presentation_of(obj, "system")
    form = _need(obj, "form", "system")
    label = obj.get("label")
    if form == "sparse":
        raw = _need(obj, "levels", "system")
        if not isinstance(raw, dict) or not all(
                isinstance(v, list) for v in raw.values()):
            raise SerializationError(
                f"system levels must map classes to lists of V-sets, not {raw!r}")
        levels = {}
        for V in P.orbit_classes:
            level = levels[V] = frozenset(_read_vset(P, o) for o in raw.get(V, []))
            if not level <= P.sparse_sets[V]:
                S = next(S for S in level if S not in P.sparse_sets[V])
                raise SerializationError(f"level {V}: {S} is not a sparse {V}-set")
        extra = set(raw) - set(P.orbit_classes)
        if extra:
            raise SerializationError(f"levels at unknown classes {sorted(extra)}")
        # each V-set was checked above; `validate` adds only the closure
        W = WeakIndexingSystem.from_sparse(P, levels, validate=False,
                                           label=label)
        if validate:
            _check_closed(P, W.sparse_levels)
        return W
    if form == "generated":
        raw = _need(obj, "generators", "system")
        bound = obj.get("bound")
        if not isinstance(raw, list) or not (bound is None or type(bound) is int):
            raise SerializationError(
                "a generated system needs a list of generators and an integer bound")
        gens = [vset_from_obj(P, o) for o in raw]
        return WeakIndexingSystem.from_generators(P, gens, bound=bound,
                                                  label=label)
    raise SerializationError(f"unknown system form {form!r}")


def transfer_to_obj(R):
    return {"kind": "transfer", "presentation": R.P.spec,
            "pairs": sorted([u, V] for u, V in R.strict())}


def transfer_from_obj(obj):
    _check_kind(obj, "transfer")
    P = _presentation_of(obj, "transfer")
    pairs = _name_pairs(_need(obj, "pairs", "transfer"), "transfer pairs")
    try:
        return TransferSystem(P, pairs)
    except ValueError as exc:
        raise SerializationError(f"bad transfer system: {exc}") from exc


def family_to_obj(P, family):
    return {"kind": "family", "presentation": P.spec,
            "members": sorted(family)}


def family_from_obj(obj):
    _check_kind(obj, "family")
    P = _presentation_of(obj, "family")
    members = frozenset(_names(_need(obj, "members", "family"), "family members"))
    if not is_family(P, members):
        raise SerializationError(
            f"{sorted(members)} is not downward closed over {P.key}")
    return P, members


def sieve_to_obj(sv):
    return {"kind": "sieve", "presentation": sv.R.P.spec,
            "transfer": sorted([u, V] for u, V in sv.R.strict()),
            "scope": sorted(sv.scope),
            "pairs": sorted([k, h] for k, h in sv.pairs)}


def sieve_from_obj(obj):
    _check_kind(obj, "sieve")
    P = _presentation_of(obj, "sieve")
    transfer = _name_pairs(_need(obj, "transfer", "sieve"), "sieve transfer")
    scope = _names(_need(obj, "scope", "sieve"), "sieve scope")
    pairs = _name_pairs(_need(obj, "pairs", "sieve"), "sieve pairs")
    try:
        return Sieve(TransferSystem(P, transfer), frozenset(scope), frozenset(pairs))
    except ValueError as exc:
        raise SerializationError(f"bad sieve: {exc}") from exc


def rep_to_obj(rep):
    out = {"kind": "rep", "presentation": rep.P.spec,
           "fixed_dims": dict(sorted(rep.fixed_dims.items()))}
    if rep.name:
        out["name"] = rep.name
    return out


def rep_from_obj(obj):
    _check_kind(obj, "rep")
    P = _presentation_of(obj, "rep")
    dims = _need(obj, "fixed_dims", "rep")
    if not isinstance(dims, dict):
        raise SerializationError(f"rep fixed_dims must be an object, not {dims!r}")
    try:
        return RepDescriptor(P, dims, name=obj.get("name"))
    except ValueError as exc:
        raise SerializationError(f"bad representation: {exc}") from exc


def _check_kind(obj, expected):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind is not None and kind != expected:
        raise SerializationError(f"expected a {expected} document, got {kind!r}")


def dumps(obj):
    # no indent: with one, json falls back to its pure-Python encoder
    return json.dumps(obj, sort_keys=True) + "\n"


def dump(obj, path):
    # one write of the whole text: json.dump would stream through the
    # pure-Python encoder
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SerializationError(f"no such file: {path}") from exc
    except OSError as exc:
        raise SerializationError(
            f"cannot read {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SerializationError(f"{path} is not valid JSON: {exc}") from exc
