"""The three workloads: their seeded inputs, task lists and reference checks.

A workload object is made from a seed and a working directory.  `setup()`
builds the presentations and fixture files (timed as set-up); `tasks()`
lists the tasks of one pass, each a timed `run` and an untimed `check` that
raises `CheckFailed` when the answer differs from its reference.  Every
reference is computed by `reference.py` from plain data, or read from the
digests pinned there; the docstring of each check says which.
"""
from __future__ import annotations

import itertools
import json
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

HERE = Path(__file__).resolve().parent
TASK_LIMIT_S = 90.0


class CheckFailed(AssertionError):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Task:
    """A timed `run` and an untimed `check` of its answer; an untimed
    `prepare`, if any, comes before every run.  A `run` that starts from
    fresh inputs each time (presentations built anew, values it does not
    change, or inputs its `prepare` makes anew) may be repeated within a
    pass: `repeats` times, a fixed number so that every pass does the same
    work (see `worker.run_task`).  Short tasks repeat, so that their
    mean time rests on more runs."""
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    repeats: int = 1
    prepare: Callable[[], None] | None = None


def s3_table(relabel=range(6)):
    """Multiplication table of the symmetric group on three letters, its
    element i renamed relabel[i]."""
    perms = list(itertools.permutations(range(3)))

    def compose(a, b):
        return tuple(b[a[i]] for i in range(3))

    table = [[0] * 6 for _ in perms]
    for a, x in enumerate(perms):
        for b, y in enumerate(perms):
            table[relabel[a]][relabel[b]] = relabel[perms.index(compose(x, y))]
    return table


def keys_of(systems):
    return [ref.system_key(W) for W in systems]


def expect_pinned(keys, pin):
    count, want = ref.PINS[pin]
    expect(len(keys) == count, f"{len(keys)} systems, pinned {count}")
    expect(len(set(keys)) == len(keys), "duplicate systems")
    expect(ref.digest(keys) == want, f"digest differs from the pinned {pin}")


# -- enum-brute ----------------------------------------------------------------


class EnumBrute:
    """Brute-force `enumerate_systems` over small groups, plus `fold_right`."""

    CHILD_PROCESSES = False
    TASKS = ("aE_small", "aE_large", "c4_unital", "c4_indexing", "s3_indexing", "point_bg2",
             "fold_right_f0", "fold_right_f1", "fold_right_f2", "fold_right_f3")

    PRIMES = {"small": (2, 3), "large": (5, 7)}

    def __init__(self, seed, workdir, w):
        self.w = w
        # the S_3 table with its elements renamed by the seed; every
        # renaming gives the same group, so passes cost alike
        self.s3_relabel = random.Random(seed).sample(range(6), 6)

    def setup(self):
        w = self.w
        self.s3_table = s3_table(self.s3_relabel)
        self.c4 = w.chain_group(2, 2)
        self.families = w.enumerate_families(self.c4)

    def tasks(self):
        # the short tasks build their presentations afresh, so that a
        # repeat starts with empty caches
        w = self.w
        out = []
        for tag, primes in self.PRIMES.items():
            out.append(Task(f"aE_{tag}", lambda primes=primes: [
                w.enumerate_systems(w.chain_group(p, 1), "aE-unital") for p in primes],
                self.check_height_one, repeats=5 if tag == "small" else 2))
        out += [
            Task("c4_unital", lambda: w.enumerate_systems(w.chain_group(2, 2), "unital"),
                 lambda got: self.check_height_two(got, self.c4)),
            Task("c4_indexing", lambda: w.enumerate_systems(w.chain_group(2, 2), "indexing"),
                 lambda got: self.check_indexing(got, self.c4, 2), repeats=3),
            Task("s3_indexing", lambda: w.enumerate_systems(
                w.finite_group(self.s3_table, name="S3"), "indexing"),
                 self.check_s3, repeats=2),
            Task("point_bg2", lambda: (
                w.enumerate_systems(w.trivial_point(), "aE-unital"),
                w.enumerate_systems(w.one_object_groupoid(2), "aE-unital")),
                self.check_point_bg2, repeats=10),
        ]
        for i, fam in enumerate(self.families):
            out.append(Task(f"fold_right_f{i}",
                            lambda fam=fam: w.fold_right(w.chain_group(2, 2), fam),
                            lambda got, fam=fam: self.check_fold_right(got, fam)))
        return out

    def check_height_one(self, got):
        """Independent: 13 aE-unital systems over each C_p, 6 of them unital
        and 2 indexing (the paper's height-one table)."""
        for systems in got:
            keys = keys_of(systems)
            expect(len(set(keys)) == ref.PAPER_COUNTS["aE_unital_height_one"],
                   f"{len(set(keys))} aE-unital systems over C_p, expected 13")
            counts = ref.unital_counts(keys)
            want = (ref.PAPER_COUNTS["unital_height_one"],
                    ref.PAPER_COUNTS["indexing_height_one"])
            expect(counts == want, f"{counts} unital / indexing systems, expected {want}")

    def check_height_two(self, got, P):
        """Independent: 21 unital systems with 32 covers over C_{p^2}, and the
        brute-force list holds the same systems as the fiberwise one."""
        keys = keys_of(got)
        expect(len(set(keys)) == ref.PAPER_COUNTS["unital_height_two"],
               f"{len(set(keys))} unital systems, expected 21")
        covers = ref.Lattice(keys).covers()
        expect(len(covers) == ref.PAPER_COUNTS["covers_height_two"],
               f"{len(covers)} covers, expected 32")
        fiberwise = keys_of(self.w.enumerate_systems_fiberwise(P, "unital"))
        expect(sorted(keys) == sorted(fiberwise), "brute force differs from fiberwise")

    def check_indexing(self, got, P, n):
        """Independent: indexing systems over C_{p^n} are Catalan(n+1)-many,
        and the brute-force list holds the same systems as the fiberwise one."""
        keys = keys_of(got)
        expect(len(set(keys)) == ref.catalan(n + 1),
               f"{len(set(keys))} indexing systems, expected {ref.catalan(n + 1)}")
        unital, indexing = ref.unital_counts(keys)
        expect(indexing == len(keys), "a listed system is not an indexing system")
        fiberwise = keys_of(self.w.enumerate_systems_fiberwise(P, "indexing"))
        expect(sorted(keys) == sorted(fiberwise), "brute force differs from fiberwise")

    def check_s3(self, got):
        """Independent: indexing systems over S_3 correspond one to one to
        its transfer systems, of which there are 9 (published count); each
        listed system is an indexing system with its own transfer pairs."""
        keys = keys_of(got)
        expect(len(set(keys)) == len(keys) == ref.PAPER_COUNTS["s3_transfer_systems"],
               f"{len(set(keys))} indexing systems over S_3, expected 9")
        unital, indexing = ref.unital_counts(keys)
        expect(indexing == len(keys), "a listed system is not an indexing system")
        expect(len({ref.transfer_pairs(k) for k in keys}) == len(keys),
               "two listed systems share their transfer pairs")

    def check_point_bg2(self, got):
        """Independent: 4 aE-unital systems over the point and over BG_2."""
        for systems in got:
            n = len(set(keys_of(systems)))
            expect(n == ref.PAPER_COUNTS["point_aE_unital"], f"{n} systems, expected 4")

    def check_fold_right(self, got, fam):
        """Independent: the Galois condition against the 21 unital systems
        over C_4, W <= fold_right(F) exactly when fold(W) lies in F."""
        top = ref.system_key(got)
        unital = keys_of(self.w.enumerate_systems_fiberwise(self.c4, "unital"))
        expect(top in unital, "fold_right is not a unital system")
        for k in unital:
            expect(ref.contains(k, top) == (ref.fold_family(k) <= fam),
                   f"Galois condition fails for family {sorted(fam)}")


# -- cli-chain -----------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    main_s: float = 0.0
    install_s: float = 0.0


# Arity supports worked out by hand from the embedding criterion: an orbit
# H/K embeds when the fixed dimension drops between K and the level above
# it, and a zero-dimensional fixed locus takes at most one point.
REP_LEVELS = {
    ("sigma", "c2"): {
        "e": [[], [["e", 1]], [["e", 2]]],
        "C_2": [[], [["C_2", 1]], [["e", 1]], [["C_2", 1], ["e", 1]]],
    },
    ("lambda_cp2", "c9"): {
        "e": [[], [["e", 1]], [["e", 2]]],
        "C_3": [[], [["C_3", 1]], [["e", 1]], [["C_3", 1], ["e", 1]]],
        "C_9": [[], [["C_9", 1]], [["e", 1]], [["C_9", 1], ["e", 1]]],
    },
}


# Seeded picks are drawn from strata of equal work, so that the seed varies
# the input but not the cost: joins over C_8 whose result has JOIN_SIZE
# sparse members (a join's closure is that of its result), and hull inputs
# over C_4 with HULL_SIZES sparse members.
JOIN_SIZE = 15
HULL_SIZES = range(11, 15)


def sparse_size(key):
    return sum(len(mem) for _, mem in key)


class CliChain:
    """Each command a `python -m windex.cli` process, on seeded fixtures."""

    CHILD_PROCESSES = True     # traced through cli_launcher.py
    TASKS = ("enum_c9_fiberwise", "enum_c4_json", "fiber_c9", "join_c8_a", "join_c8_b",
             "validate_c4", "transport_fold", "transport_transfer", "rep_sigma_c2",
             "rep_lambda_cp2_c9", "hull_c4")

    def __init__(self, seed, workdir, w, trace_dir=None):
        self.w = w
        self.seed = seed
        self.dir = Path(workdir)
        self.trace_dir = trace_dir
        self.launched = []

    def setup(self):
        w = self.w
        ser = w.serialize
        rng = random.Random(self.seed)
        self.c9 = w.chain_group(3, 2)
        self.c8 = w.chain_group(2, 3)
        self.c4 = w.chain_group(2, 2)
        u8 = w.enumerate_systems_fiberwise(self.c8, "unital")
        u4 = w.enumerate_systems_fiberwise(self.c4, "unital")
        self.keys9 = keys_of(w.enumerate_systems_fiberwise(self.c9, "unital"))
        self.keys8 = keys_of(u8)
        self.keys4 = keys_of(u4)
        expect_pinned(self.keys8, "c8_unital")
        expect(len(set(self.keys9)) == ref.PAPER_COUNTS["unital_height_two"]
               and len(ref.Lattice(self.keys9).covers()) == ref.PAPER_COUNTS["covers_height_two"],
               "the C_9 list is not the paper's 21 systems with 32 covers")
        self.lat8 = ref.Lattice(self.keys8)
        self.dir.mkdir(parents=True, exist_ok=True)

        def write(name, obj):
            path = self.dir / name
            ser.dump(obj, path)
            return str(path)

        def system_file(name, W):
            return write(name, ser.system_to_obj(W))

        # fiber: a seeded admissible (transfer system, fold family) pair
        # over C_9; the command labels the systems it finds, so its time is
        # mostly `_label_library`
        pairs = sorted({(tuple(sorted(ref.transfer_pairs(k))),
                         tuple(sorted(ref.fold_family(k)))) for k in self.keys9})
        R, F = rng.choice(pairs)
        self.fiber_pair = (frozenset(R), frozenset(F))
        self.f_R = write("fiber_R.json", ser.transfer_to_obj(
            w.TransferSystem(self.c9, set(R))))
        self.f_F = write("fiber_F.json", ser.family_to_obj(self.c9, set(F)))

        # join: two seeded incomparable pairs over C_8 whose join has
        # JOIN_SIZE sparse members
        lat = self.lat8
        joinable = [(i, j) for i, j in itertools.combinations(range(len(u8)), 2)
                    if not lat.leq(i, j) and not lat.leq(j, i)
                    and sparse_size(self.keys8[lat.lub(i, j)]) == JOIN_SIZE]
        self.joins = []
        for tag in ("a", "b"):
            i, j = rng.choice(joinable)
            self.joins.append((system_file(f"join_{tag}1.json", u8[i]),
                               system_file(f"join_{tag}2.json", u8[j]),
                               lat.lub(i, j)))

        # validate and the two transports: seeded systems over C_4
        self.lat4 = ref.Lattice(self.keys4)
        classes = list(self.c4.orbit_classes)
        self.v_file = system_file("validate.json", u4[rng.randrange(len(u4))])
        everything = frozenset(classes)
        i = rng.choice([i for i, k in enumerate(self.keys4)
                        if ref.fold_family(k) != everything])
        fold = ref.fold_family(self.keys4[i])
        goal = rng.choice([frozenset(classes[:r]) for r in range(len(classes) + 1)
                           if frozenset(classes[:r]) > fold])
        self.fold_case = (i, goal)
        self.tf_W = system_file("fold_W.json", u4[i])
        self.tf_goal = write("fold_goal.json", ser.family_to_obj(self.c4, set(goal)))

        transfers = {ref.transfer_pairs(k) for k in self.keys4}
        i = rng.choice([i for i, k in enumerate(self.keys4)
                        if any(t > ref.transfer_pairs(k) for t in transfers)])
        have = ref.transfer_pairs(self.keys4[i])
        target = rng.choice(sorted((t for t in transfers if t > have), key=sorted))
        self.transfer_case = (i, target)
        self.tt_W = system_file("transfer_W.json", u4[i])
        self.tt_R = write("transfer_goal.json", ser.transfer_to_obj(
            w.TransferSystem(self.c4, set(target))))

        # hull: a seeded C_4 system with HULL_SIZES sparse members
        self.h4 = system_file("hull4.json", u4[rng.choice(
            [i for i, k in enumerate(self.keys4) if sparse_size(k) in HULL_SIZES])])

    # -- launching ------------------------------------------------------------

    def cli(self, name, *args):
        """One command in its own process, traced through the launcher when
        a trace directory is set."""
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "windex.cli", *args]
            trace_file = None
        else:
            Path(self.trace_dir).mkdir(parents=True, exist_ok=True)
            trace_file = Path(self.trace_dir) / f"{name}.json"
            cmd = [sys.executable, str(HERE / "cli_launcher.py"), str(trace_file), *args]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.dir, capture_output=True, text=True,
                              timeout=TASK_LIMIT_S)
        wall = time.perf_counter() - start
        result = CliResult(proc.returncode, proc.stdout, proc.stderr, wall)
        if trace_file is not None and trace_file.exists():
            data = json.loads(trace_file.read_text())
            result.main_s, result.install_s = data["main_s"], data["install_s"]
            self.launched.append((name, result, data))
        return result

    def out(self, name):
        return str(self.dir / name)

    def command(self, name, args, check, repeats=1):
        return Task(name, lambda: self.cli(name, *args), check, repeats=repeats)

    def tasks(self):
        d = self.out
        out = [
            # the two longest commands run twice a pass, for more samples
            self.command("enum_c9_fiberwise", ["enumerate", "--p", "3", "--n", "2",
                         "--class", "unital", "--fiberwise", "--out", d("c9.dot")],
                         self.check_enum_c9, repeats=2),
            self.command("enum_c4_json", ["enumerate", "--p", "2", "--n", "2",
                         "--class", "unital", "--out", d("c4.json")],
                         self.check_enum_c4),
            self.command("fiber_c9", ["fiber", "--R", self.f_R, "--family", self.f_F,
                         "--out", d("fiber.json")], self.check_fiber, repeats=2),
        ]
        for tag, (a, b, want) in zip("ab", self.joins):
            out.append(self.command(
                f"join_c8_{tag}", ["join", a, b, "--out", d(f"join_{tag}.json")],
                lambda got, tag=tag, want=want: self.check_system_file(
                    got, f"join_{tag}.json", self.keys8[want], "least upper bound")))
        out += [
            self.command("validate_c4", ["validate", self.v_file], self.check_validate),
            self.command("transport_fold", ["transport", "--map", "fold", "--to",
                         self.tf_goal, self.tf_W, "--out", d("fold.json")],
                         self.check_transport_fold),
            self.command("transport_transfer", ["transport", "--map", "transfer", "--to",
                         self.tt_R, self.tt_W, "--out", d("transfer.json")],
                         self.check_transport_transfer),
            self.command("rep_sigma_c2", ["rep", "--name", "sigma", "--group", "c2",
                         "--out", d("sigma.json")],
                         lambda got: self.check_rep(got, "sigma", "c2", "sigma.json")),
            self.command("rep_lambda_cp2_c9", ["rep", "--name", "lambda_cp2", "--group",
                         "c9", "--out", d("lambda.json")],
                         lambda got: self.check_rep(got, "lambda_cp2", "c9", "lambda.json")),
            self.command("hull_c4", ["hull", self.h4, "--out", d("hull4.json")],
                         self.check_hull),
        ]
        return out

    # -- checks -----------------------------------------------------------------

    def load_out(self, name):
        return json.loads((self.dir / name).read_text())

    @staticmethod
    def expect_ok(got):
        expect(got.code == 0, f"exit code {got.code}: {got.stderr.strip()[-300:]}")

    @staticmethod
    def expect_same_order(nodes, covers, keys):
        """The cover graph read from the program's output describes the
        containment order of the listed systems: 21 nodes, 32 covers (the
        paper), and the same order profile, whatever the nodes' order."""
        n = ref.PAPER_COUNTS["unital_height_two"]
        expect(len(set(nodes)) == len(nodes) == n, f"{len(set(nodes))} nodes, expected {n}")
        expect(len(covers) == ref.PAPER_COUNTS["covers_height_two"],
               f"{len(covers)} covers, expected 32")
        index = {v: i for i, v in enumerate(nodes)}
        expect(all(a in index and b in index for a, b in covers), "a cover names no node")
        have = ref.order_profile(n, [(index[a], index[b]) for a, b in covers])
        expect(have == ref.order_profile(n, ref.Lattice(keys).covers()),
               "the cover graph differs from containment of the listed systems")

    def check_enum_c9(self, got):
        """Independent: 21 unital systems over C_9 with 32 covers (the
        paper); the DOT graph is the containment order of the systems."""
        self.expect_ok(got)
        expect(got.stdout.startswith("21 unital systems over chain:p=3,n=2, 32 cover"),
               f"summary line {got.stdout.splitlines()[:1]}")
        text = (self.dir / "c9.dot").read_text()
        nodes = re.findall(r"^\s*(n\d+) \[label=", text, re.M)
        edges = re.findall(r"^\s*(n\d+) -> (n\d+);", text, re.M)
        self.expect_same_order(nodes, edges, self.keys9)

    def check_enum_c4(self, got):
        """Independent: 21 nodes and 32 covers over C_4 (the paper), in the
        containment order of the systems."""
        self.expect_ok(got)
        doc = self.load_out("c4.json")
        self.expect_same_order(doc["nodes"], [tuple(c) for c in doc["covers"]], self.keys4)

    def check_fiber(self, got):
        """Independent: the fiber equals the systems of the C_9 list (21,
        the paper) with this transfer system and fold family."""
        self.expect_ok(got)
        R, F = self.fiber_pair
        want = sorted(k for k in self.keys9
                      if ref.transfer_pairs(k) == R and ref.fold_family(k) == F)
        expect(got.stdout.startswith(f"{len(want)} systems over this"),
               f"summary line {got.stdout.splitlines()[:1]}")
        have = sorted(ref.system_key_from_obj(o) for o in self.load_out("fiber.json"))
        expect(have == want, "fiber differs from the filtered list")

    def check_system_file(self, got, name, want, what):
        self.expect_ok(got)
        have = ref.system_key_from_obj(self.load_out(name))
        expect(have == want, f"result is not the {what} read off the list")

    def check_validate(self, got):
        """Independent: a listed unital system passes the structural axioms;
        it is classed unital, and indexing exactly when every level folds."""
        self.expect_ok(got)
        lines = got.stdout.splitlines()
        for axiom in ("restriction-stable", "segal"):
            expect(any(l.split()[:2] == [axiom, "ok"] for l in lines), f"{axiom} not ok")
        classes = [l for l in lines if l.startswith("class:")]
        expect(classes, "no class line")
        flags = set(classes[0][len("class:"):].replace(",", " ").split())
        key = ref.system_key_from_obj(json.loads(Path(self.v_file).read_text()))
        expect("unital" in flags, "a unital system is not classed unital")
        everything = frozenset(self.c4.orbit_classes)
        expect(("indexing" in flags) == (ref.fold_family(key) == everything),
               "indexing flag differs from the fold family")

    def check_transport_fold(self, got):
        """Independent (adjunction): the result is the least listed system
        above W whose fold family contains the target."""
        i, goal = self.fold_case
        lat = self.lat4
        above = [j for j, k in enumerate(self.keys4)
                 if lat.leq(i, j) and ref.fold_family(k) >= goal]
        want = lat.least_with(above)
        expect(want is not None, "no least system above the target")
        self.check_system_file(got, "fold.json", self.keys4[want], "cocartesian lift")

    def check_transport_transfer(self, got):
        """Independent (adjunction): the least listed system above W whose
        transfer system contains the target."""
        i, target = self.transfer_case
        lat = self.lat4
        above = [j for j, k in enumerate(self.keys4)
                 if lat.leq(i, j) and ref.transfer_pairs(k) >= target]
        want = lat.least_with(above)
        expect(want is not None, "no least system above the target")
        self.check_system_file(got, "transfer.json", self.keys4[want], "cocartesian lift")

    def check_rep(self, got, name, group, out):
        """Independent: the arity support equals the levels worked out by
        hand from the embedding criterion (REP_LEVELS)."""
        self.expect_ok(got)
        have = ref.system_key_from_obj(self.load_out(out))
        want = ref.system_key_from_obj({"levels": {
            V: [{"orbits": o} for o in mem]
            for V, mem in REP_LEVELS[(name, group)].items()}})
        expect(have == want, f"arity support of {name} differs")

    def check_hull(self, got):
        """Independent: the hull of a unital system is an indexing system
        (the paper's claim), and it lies among the unital systems over C_4."""
        self.expect_ok(got)
        expect("indexing" in got.stdout.split("hull class:")[-1], "hull not indexing")
        key = ref.system_key_from_obj(self.load_out("hull4.json"))
        classes = {V for V, _ in key}
        expect(ref.is_unital(key) and ref.fold_family(key) == classes,
               "hull is not an indexing system")
        expect(key in self.keys4, "hull is not among the unital systems")


# -- lattice-c16 ---------------------------------------------------------------


class LatticeC16:
    """Fiberwise enumeration over C_16 and C_32, and the C_16 lattice."""

    CHILD_PROCESSES = False
    TASKS = ("enum_c16", "enum_c32", "poset_c16", "isomorphic_c16", "serialize_c16",
             "sieve_of_c16", "meet_leq_c16")
    PAIRS = 200

    def __init__(self, seed, workdir, w):
        self.w = w
        self.rng = random.Random(seed)
        self.dir = Path(workdir)
        self.state = {}
        self._lattice = None

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)

    def tasks(self):
        w, st = self.w, self.state
        # sieve_of fills the systems' membership caches, so each of its runs
        # gets systems enumerated anew
        return [
            Task("enum_c16", self.run_enum_c16,
                 lambda got: self.check_enum(got, "c16_unital", 4), repeats=3),
            Task("enum_c32", lambda: w.enumerate_systems_fiberwise(w.chain_group(2, 5), "unital"),
                 lambda got: self.check_enum(got, "c32_unital", 5), repeats=2),
            Task("poset_c16", self.run_poset, self.check_poset, repeats=2),
            Task("isomorphic_c16", lambda: st["poset"].isomorphic(st["copy"]),
                 self.check_isomorphic, repeats=3, prepare=self.shuffled_copy),
            Task("serialize_c16", self.run_serialize, self.check_serialize, repeats=3),
            Task("sieve_of_c16", lambda: [w.sieve_of(W) for W in st["fresh"]],
                 self.check_sieves, repeats=3, prepare=self.fresh_systems),
            Task("meet_leq_c16", self.run_meet_leq, self.check_meet_leq, repeats=10),
        ]

    def run_enum_c16(self):
        got = self.w.enumerate_systems_fiberwise(self.w.chain_group(2, 4), "unital")
        self.state.setdefault("c16", got)
        return got

    def lattice(self):
        if self._lattice is None:
            self._lattice = ref.Lattice(keys_of(self.state["c16"]))
        return self._lattice

    def check_enum(self, got, pin, n):
        """Pinned: 310 / 1251 unital systems (digest from the seed commit).
        Independent: every one unital, and their transfer systems are the
        Catalan(n+1)-many transfer systems of C_{2^n}."""
        keys = keys_of(got)
        expect(all(ref.is_unital(k) for k in keys), "a listed system is not unital")
        transfers = {ref.transfer_pairs(k) for k in keys}
        expect(len(transfers) == ref.catalan(n + 1),
               f"{len(transfers)} transfer systems, expected {ref.catalan(n + 1)}")
        expect_pinned(keys, pin)

    def permutation(self):
        """A seeded renumbering of the C_16 systems, drawn once."""
        if "perm" not in self.state:
            n = len(self.state["c16"])
            self.state["perm"] = self.rng.sample(range(n), n)
        return self.state["perm"]

    def build_poset(self, shuffled):
        """The containment poset of the C_16 systems, with content-hash
        labels; `shuffled` numbers its elements by the seeded permutation,
        so that element a is system perm[a] and copy.leq(a, b) is
        poset.leq(perm[a], perm[b])."""
        from windex.enumeration import content_hash
        systems = self.state["c16"]
        if shuffled:
            systems = [systems[i] for i in self.permutation()]
        po = self.w.system_poset(systems, labels=[content_hash(W) for W in systems])
        self.state["copy" if shuffled else "poset"] = po
        return po

    def run_poset(self):
        """The runs alternate between the list and its shuffled copy, the
        same work either way; isomorphic_c16 compares the two."""
        runs = self.state["poset_runs"] = self.state.get("poset_runs", 0) + 1
        shuffled = runs % 2 == 0
        covers = self.build_poset(shuffled).covers()
        self.state.setdefault("covers", {})[shuffled] = covers
        return covers

    def check_poset(self, got):
        """Independent: the covers of every run equal those recomputed from
        containment of sparse levels, for the list and, renumbered, for its
        shuffled copy.  Pinned: there are 800."""
        want = self.lattice().covers()
        expect(len(want) == ref.PINS["c16_unital_covers"], f"{len(want)} covers")
        perm = self.permutation()
        for shuffled, covers in self.state["covers"].items():
            if shuffled:
                covers = sorted((perm[a], perm[b]) for a, b in covers)
            expect(covers == want, "covers differ from containment")

    def shuffled_copy(self):
        """The shuffled copy, built untimed when poset_c16 ran only once (a
        traced pass runs every task once)."""
        if "copy" not in self.state:
            self.build_poset(shuffled=True)

    def check_isomorphic(self, mapping):
        """Independent: the mapping is a bijection that carries the order
        matrix of the poset onto that of its shuffled copy."""
        copy = self.state["copy"]
        lat = self.lattice()
        perm = self.permutation()
        n = len(lat.keys)
        expect(mapping is not None and sorted(mapping) == list(range(n)),
               "no bijection returned")
        for i in range(n):
            for j in range(n):
                expect(lat.leq(i, j) == copy.leq(mapping[i], mapping[j]),
                       "mapping does not preserve the order")
                expect(copy.leq(i, j) == lat.leq(perm[i], perm[j]), "copy differs")

    def run_serialize(self):
        ser = self.w.serialize
        path = self.dir / "c16.json"
        ser.dump([ser.system_to_obj(W) for W in self.state["c16"]], path)
        return [ser.system_from_obj(obj) for obj in ser.load(path)]

    def check_serialize(self, got):
        """Independent: the decoded systems have the sparse levels of the
        encoded ones, in order."""
        expect(keys_of(got) == self.lattice().keys, "round trip changed a system")

    def fresh_systems(self):
        """The C_16 systems enumerated anew, with empty caches."""
        self.state["fresh"] = self.w.enumerate_systems_fiberwise(
            self.w.chain_group(2, 4), "unital")

    def check_sieves(self, got):
        """Independent: each sieve is the one read off the system's levels:
        admissible orbits, the uncovered scope, and the extra fixed points."""
        order = ref.chain_order(2, 4)
        keys = keys_of(self.state["fresh"])
        expect(sorted(keys) == sorted(self.lattice().keys), "the systems differ")
        expect(len(got) == len(keys), "one sieve per system")
        for k, sv in zip(keys, got):
            pairs, scope, held = ref.expected_sieve(k, order)
            expect(frozenset(sv.R.strict()) == pairs, "sieve over the wrong transfer system")
            expect(frozenset(sv.scope) == scope, "sieve on the wrong scope")
            expect(frozenset(sv.pairs) == held, "sieve has the wrong pairs")

    def run_meet_leq(self):
        systems = self.state["c16"]
        n = len(systems)
        if "pairs" not in self.state:
            self.state["pairs"] = [(self.rng.randrange(n), self.rng.randrange(n))
                                   for _ in range(self.PAIRS)]
        pairs = self.state["pairs"]
        return [(self.w.meet(systems[i], systems[j]), self.w.leq(systems[i], systems[j]))
                for i, j in pairs]

    def check_meet_leq(self, got):
        """Independent: each meet is the greatest lower bound read off the
        list, and each leq answer is containment of sparse levels."""
        lat = self.lattice()
        for (i, j), (m, le) in zip(self.state["pairs"], got):
            want = lat.glb(i, j)
            expect(want is not None and ref.system_key(m) == lat.keys[want],
                   "meet is not the greatest lower bound")
            expect((le == self.w.YES) == lat.leq(i, j), "leq differs from containment")


WORKLOADS = {
    "enum-brute": EnumBrute,
    "cli-chain": CliChain,
    "lattice-c16": LatticeC16,
}
